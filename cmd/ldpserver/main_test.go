package main

import (
	"context"
	"log/slog"
	"testing"
)

// TestLogHandlerLevels pins the five -log-level values (with their
// aliases) to the floor they set, and refuses anything else.
func TestLogHandlerLevels(t *testing.T) {
	for level, floor := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo, " INFO ": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		h, err := logHandler(level)
		if err != nil {
			t.Fatalf("%q: %v", level, err)
		}
		if !h.Enabled(context.Background(), floor) || h.Enabled(context.Background(), floor-1) {
			t.Fatalf("%q does not set the floor at %v", level, floor)
		}
	}
	for _, off := range []string{"off", "none"} {
		if h, err := logHandler(off); err != nil || h.Enabled(context.Background(), slog.LevelError) {
			t.Fatalf("%q: handler enabled at error (err %v)", off, err)
		}
	}
	if _, err := logHandler("verbose"); err == nil {
		t.Fatal("unknown level accepted")
	}
}
