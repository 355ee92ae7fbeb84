package query

import (
	"math"
	"slices"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
)

type exactEstimator struct{ records []uint64 }

func (e exactEstimator) Estimate(beta uint64) (*marginal.Table, error) {
	return marginal.FromRecords(e.records, beta)
}

func TestConjunctionValidate(t *testing.T) {
	good := Conjunction{Terms: []Term{{0, true}, {3, false}}}
	if err := good.Validate(8); err != nil {
		t.Errorf("valid conjunction rejected: %v", err)
	}
	if err := (Conjunction{}).Validate(8); err == nil {
		t.Error("empty conjunction accepted")
	}
	dup := Conjunction{Terms: []Term{{1, true}, {1, false}}}
	if err := dup.Validate(8); err == nil {
		t.Error("duplicate attribute accepted")
	}
	oob := Conjunction{Terms: []Term{{9, true}}}
	if err := oob.Validate(8); err == nil {
		t.Error("out-of-range attribute accepted")
	}
}

// TestBetaAndString pins the mask a conjunction touches and its string
// form: "a0=1 AND a3=0" parses to exactly its terms.
func TestBetaAndString(t *testing.T) {
	c := Conjunction{Terms: []Term{{0, true}, {3, false}}}
	if c.Beta() != 0b1001 {
		t.Errorf("Beta = %b", c.Beta())
	}
	got, err := Parse("a0=1 AND a3=0", nil)
	if err != nil || !slices.Equal(got.Terms, c.Terms) {
		t.Errorf("Parse = %v, %v; want %v", got, err, c)
	}
}

func TestEvaluateAgainstDirectCount(t *testing.T) {
	ds := dataset.NewTaxi(50000, 1)
	est := exactEstimator{ds.Records}
	// Fraction of trips paying by card but not tipping.
	c := Conjunction{Terms: []Term{
		{dataset.TaxiCC, true},
		{dataset.TaxiTip, false},
	}}
	got, err := Evaluate(est, c, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	direct := 0
	for _, rec := range ds.Records {
		if rec&(1<<dataset.TaxiCC) != 0 && rec&(1<<dataset.TaxiTip) == 0 {
			direct++
		}
	}
	want := float64(direct) / float64(ds.N())
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Evaluate = %v, direct = %v", got, want)
	}
}

func TestEvaluateThreeWayIntroQuery(t *testing.T) {
	// The introduction's query shape: A and B but not C.
	ds := dataset.NewTaxi(40000, 2)
	est := exactEstimator{ds.Records}
	c := Conjunction{Terms: []Term{
		{dataset.TaxiNightPick, true},
		{dataset.TaxiNightDrop, true},
		{dataset.TaxiFar, false},
	}}
	got, err := Evaluate(est, c, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got >= 1 {
		t.Errorf("fraction = %v out of (0,1)", got)
	}
}

func TestEvaluateUnderLDP(t *testing.T) {
	ds := dataset.NewTaxi(200000, 3)
	p, err := core.New(core.InpHT, core.Config{D: ds.D, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := core.Run(p, ds.Records, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := Conjunction{Terms: []Term{
		{dataset.TaxiCC, true},
		{dataset.TaxiTip, true},
	}}
	private, err := Evaluate(agg, c, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Evaluate(exactEstimator{ds.Records}, c, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(private-exact) > 0.03 {
		t.Errorf("private %v vs exact %v", private, exact)
	}
}

func TestParse(t *testing.T) {
	ds := dataset.NewTaxi(10, 1)
	c, err := Parse("CC=1 AND Tip=0", ds.AttributeIndex)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Terms) != 2 || c.Terms[0].Attr != dataset.TaxiCC || c.Terms[0].Value != true {
		t.Errorf("parsed %+v", c)
	}
	if c.Terms[1].Attr != dataset.TaxiTip || c.Terms[1].Value != false {
		t.Errorf("parsed %+v", c)
	}
	// Bare aN names without a resolver.
	c2, err := Parse("a2=1", nil)
	if err != nil || c2.Terms[0].Attr != 2 {
		t.Errorf("bare name parse: %+v, %v", c2, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "CC", "CC=2", "CC=x", "Bogus=1"} {
		if _, err := Parse(s, func(string) int { return -1 }); err == nil {
			t.Errorf("parse %q should error", s)
		}
	}
}
