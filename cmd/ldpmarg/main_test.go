package main

import (
	"testing"

	"ldpmarginals"
)

func TestMakeDataset(t *testing.T) {
	ds, err := makeDataset("taxi", 100, 8, 1)
	if err != nil || ds.D != 8 {
		t.Errorf("taxi: %v, %v", ds, err)
	}
	ds, err = makeDataset("movielens", 100, 10, 1)
	if err != nil || ds.D != 10 {
		t.Errorf("movielens: %v", err)
	}
	ds, err = makeDataset("skewed", 100, 6, 1)
	if err != nil || ds.D != 6 {
		t.Errorf("skewed: %v", err)
	}
	if _, err := makeDataset("bogus", 100, 8, 1); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestParseBeta(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(10, 1)
	beta, err := parseBeta(ds, "CC,Tip", 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ds.Mask("CC", "Tip")
	if beta != want {
		t.Errorf("beta = %b, want %b", beta, want)
	}
	// Numeric indices work too.
	beta, err = parseBeta(ds, "0, 7", 2)
	if err != nil || beta != want {
		t.Errorf("numeric beta = %b, %v", beta, err)
	}
	// Default: first k attributes.
	beta, err = parseBeta(ds, "", 3)
	if err != nil || beta != 0b111 {
		t.Errorf("default beta = %b, %v", beta, err)
	}
	if _, err := parseBeta(ds, "Nope", 2); err == nil {
		t.Error("unknown attribute should error")
	}
	if _, err := parseBeta(ds, "CC,Tip,Far", 2); err == nil {
		t.Error("too many attributes should error")
	}
	if _, err := parseBeta(ds, "99", 2); err == nil {
		t.Error("out-of-range index should error")
	}
	if _, err := parseBeta(ds, "", 9); err == nil {
		t.Error("k > d should error")
	}
}

func TestBetaNamesAndCellLabel(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(10, 1)
	beta, _ := ds.Mask("CC", "Tip")
	names := betaNames(ds, beta)
	if len(names) != 2 || names[0] != "CC" || names[1] != "Tip" {
		t.Errorf("names = %v", names)
	}
	if got := cellLabel(names, 0b01); got != "CC=1,Tip=0" {
		t.Errorf("label = %q", got)
	}
	if got := cellLabel(names, 0b10); got != "CC=0,Tip=1" {
		t.Errorf("label = %q", got)
	}
}
