package view

import (
	"testing"

	"ldpmarginals/internal/core"
)

// composedSource wraps a plain source with a fixed composition, the
// shape a coordinator's fleet presents.
type composedSource struct {
	Source
	comp []Component
}

func (c *composedSource) Composition() []Component { return c.comp }

// TestEngineRecordsComposition pins the per-peer staleness plumbing:
// every epoch built from a Composed source carries that source's
// composition, and epochs from plain sources carry none.
func TestEngineRecordsComposition(t *testing.T) {
	p := testProtocol(t)
	agg := core.NewSharded(p, 2)
	feed(t, p, agg, 50, 4)

	comp := []Component{
		{ID: "edge-1", URL: "http://e1", N: 30, Version: 7},
		{ID: "edge-2", URL: "http://e2", N: 20, Version: 3},
	}
	src := &composedSource{Source: agg, comp: comp}
	eng, err := NewEngine(src, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v := eng.Current()
	if len(v.Components) != 2 || v.Components[0].ID != "edge-1" || v.Components[1].N != 20 {
		t.Fatalf("epoch components = %+v, want the source's composition", v.Components)
	}

	// The composition updates with the source on the next epoch.
	src.comp = comp[:1]
	feed(t, p, agg, 10, 5)
	v2, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Components) != 1 {
		t.Fatalf("refreshed components = %+v, want 1 entry", v2.Components)
	}

	// A plain source yields no components.
	plain, err := NewEngine(agg, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if got := plain.Current().Components; got != nil {
		t.Fatalf("plain source carries components %+v", got)
	}
}
