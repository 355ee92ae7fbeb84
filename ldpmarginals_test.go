package ldpmarginals_test

import (
	"math"
	"testing"

	"ldpmarginals"
	"ldpmarginals/internal/em"
)

func TestPublicQuickstartFlow(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(200000, 1)
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: ds.D, K: 2, Epsilon: 1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldpmarginals.Simulate(p, ds.Records, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := ds.Mask("CC", "Tip")
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.Estimate(beta)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ldpmarginals.ExactMarginal(ds.Records, beta)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := got.TVDistance(exact)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.05 {
		t.Errorf("quickstart TV = %v, want < 0.05", tv)
	}
	if bits := p.CommunicationBits() * agg.N(); bits != (ds.D+1)*ds.N() {
		t.Errorf("total bits = %d", bits)
	}
}

func TestPublicAllKindsRun(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(5000, 2)
	for _, kind := range ldpmarginals.AllKinds() {
		p, err := ldpmarginals.NewProtocol(kind, ldpmarginals.Config{D: ds.D, K: 2, Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		agg, err := ldpmarginals.Simulate(p, ds.Records, 1, 2)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if agg.N() != ds.N() {
			t.Errorf("%v consumed %d reports", kind, agg.N())
		}
	}
}

func TestPublicIndependence(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(100000, 4)
	beta, _ := ds.Mask("CC", "Tip")
	tab, err := ds.Marginal(beta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ldpmarginals.TestIndependence(tab, float64(ds.N()), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dependent {
		t.Error("CC-Tip should test dependent")
	}
}

func TestPublicDependencyTree(t *testing.T) {
	ds, err := ldpmarginals.NewMovieLensDataset(40000, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ldpmarginals.FitDependencyTree(ldpmarginals.ExactEstimator{DS: ds}, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Edges) != ds.D-1 {
		t.Fatalf("tree has %d edges", len(tree.Edges))
	}
	model, err := ldpmarginals.BuildTreeModel(tree, ldpmarginals.ExactEstimator{DS: ds}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := model.LogLikelihood(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || ll >= 0 {
		t.Errorf("log likelihood = %v", ll)
	}
}

func TestPublicEMBaseline(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(30000, 6)
	p, err := ldpmarginals.NewEM(ldpmarginals.Config{D: ds.D, K: 2, Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ldpmarginals.Simulate(p, ds.Records, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := run.(*em.Aggregator)
	if !ok {
		t.Fatal("Simulate lost the EM aggregator's type")
	}
	beta, _ := ds.Mask("Toll", "Far")
	dec, err := agg.EstimateDetailed(beta)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Failed {
		t.Error("EM should not fail at eps=6")
	}
}

func TestPublicFrequencyOracles(t *testing.T) {
	ds, err := ldpmarginals.NewSkewedDataset(30000, 6, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	olh, err := ldpmarginals.NewOLH(ldpmarginals.Config{D: ds.D, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	hcms, err := ldpmarginals.NewHCMS(ldpmarginals.HCMSConfig{D: ds.D, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []ldpmarginals.Protocol{olh, hcms} {
		agg, err := ldpmarginals.Simulate(p, ds.Records, 3, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if _, err := agg.Estimate(0b11); err != nil {
			t.Fatalf("%s estimate: %v", p.Name(), err)
		}
	}
}

// TestProtocolByNameAllNames: every protocol name constructs, in any
// case, and an unknown one is an error.
func TestProtocolByNameAllNames(t *testing.T) {
	cfg := ldpmarginals.Config{D: 8, K: 2, Epsilon: 1}
	names := []string{"InpRR", "inpps", "InpHT", "margrr", "MargPS", "MARGHT",
		"InpEM", "InpOLH", "InpHTCMS"}
	for _, name := range names {
		p, err := ldpmarginals.ProtocolByName(name, cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p == nil {
			t.Errorf("%s: nil protocol", name)
		}
	}
	if _, err := ldpmarginals.ProtocolByName("nope", cfg); err == nil {
		t.Error("unknown protocol should error")
	}
}

func TestPublicCategorical(t *testing.T) {
	cat, err := ldpmarginals.NewCategoricalDataset(20000, []int{4, 3, 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := cat.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if bin.D != cat.BinaryDimension() {
		t.Errorf("binary dimension mismatch: %d vs %d", bin.D, cat.BinaryDimension())
	}
	mask, err := cat.MaskFor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: bin.D, K: 4, Epsilon: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldpmarginals.Simulate(p, bin.Records, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.Estimate(mask)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := bin.Marginal(mask)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := got.TVDistance(exact)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.1 {
		t.Errorf("categorical pipeline TV = %v", tv)
	}
}
