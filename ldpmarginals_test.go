package ldpmarginals_test

import (
	"math"
	"testing"

	"ldpmarginals"
)

func TestPublicQuickstartFlow(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(200000, 1)
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
		D: ds.D, K: 2, Epsilon: 1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ldpmarginals.Simulate(p, ds.Records, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := ds.Mask("CC", "Tip")
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.Agg.Estimate(beta)
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
	if run.TotalBits != int64((ds.D+1)*ds.N()) {
		t.Errorf("TotalBits = %d", run.TotalBits)
	}
}

func TestPublicAllKindsRun(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(5000, 2)
	for _, kind := range ldpmarginals.AllKinds() {
		p, err := ldpmarginals.NewProtocol(kind, ldpmarginals.Config{D: ds.D, K: 2, Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		run, err := ldpmarginals.Simulate(p, ds.Records, 1, 2)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if run.Agg.N() != ds.N() {
			t.Errorf("%v consumed %d reports", kind, run.Agg.N())
		}
	}
}

func TestPublicMeanTVAndMarginals(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(40000, 3)
	betas := ldpmarginals.AllKWayMarginals(ds.D, 2)
	if len(betas) != 28 {
		t.Fatalf("C(8,2) = %d, want 28", len(betas))
	}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.MargPS, ldpmarginals.Config{D: ds.D, K: 2, Epsilon: 3})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ldpmarginals.Simulate(p, ds.Records, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := ldpmarginals.MeanTV(run.Agg, ds.Records, betas)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.1 {
		t.Errorf("MeanTV = %v", tv)
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
	mi, err := ldpmarginals.MutualInformation(tab)
	if err != nil {
		t.Fatal(err)
	}
	if mi <= 0 {
		t.Errorf("MI = %v, want positive", mi)
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
	p, err := ldpmarginals.NewEM(ldpmarginals.EMConfig{D: ds.D, K: 2, Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ldpmarginals.Simulate(p, ds.Records, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := run.Agg.(*ldpmarginals.EMAggregator)
	if !ok {
		t.Fatal("EM aggregator type lost through the public API")
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
	olh, err := ldpmarginals.NewOLH(ldpmarginals.OLHConfig{D: ds.D, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	hcms, err := ldpmarginals.NewHCMS(ldpmarginals.HCMSConfig{D: ds.D, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []ldpmarginals.Protocol{olh, hcms} {
		run, err := ldpmarginals.Simulate(p, ds.Records, 3, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if _, err := run.Agg.Estimate(0b11); err != nil {
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

func TestPublicPearsonMatrix(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(20000, 8)
	m, err := ldpmarginals.PearsonMatrix(ds.Records, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != ds.D {
		t.Fatalf("matrix size %d", len(m))
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
	run, err := ldpmarginals.Simulate(p, bin.Records, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.Agg.Estimate(mask)
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

func TestPublicConjunctionQueries(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(100000, 11)
	c, err := ldpmarginals.ParseConjunction("CC=1 AND Tip=1", ds.AttributeIndex)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ldpmarginals.EvaluateConjunction(ldpmarginals.ExactEstimator{DS: ds}, c, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{D: ds.D, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ldpmarginals.Simulate(p, ds.Records, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	private, err := ldpmarginals.EvaluateConjunction(run.Agg, c, ds.D)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(private-exact) > 0.05 {
		t.Errorf("conjunction: private %v vs exact %v", private, exact)
	}
	cube, err := ldpmarginals.MaterializeCube(run.Agg, ds.D, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cube) != 36 {
		t.Errorf("cube size %d, want 36", len(cube))
	}
}

func TestPublicConsistencyAndBounds(t *testing.T) {
	ds := ldpmarginals.NewTaxiDataset(60000, 12)
	p, err := ldpmarginals.NewProtocol(ldpmarginals.MargPS, ldpmarginals.Config{D: ds.D, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ldpmarginals.Simulate(p, ds.Records, 17, 0)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*ldpmarginals.Table
	for _, beta := range []uint64{0b011, 0b101, 0b110} {
		tab, err := run.Agg.Estimate(beta)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab)
	}
	before, err := ldpmarginals.MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if err := ldpmarginals.EnforceConsistency(tables, nil, ldpmarginals.ConsistencyOptions{}); err != nil {
		t.Fatal(err)
	}
	after, err := ldpmarginals.MaxDisagreement(tables)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("consistency did not improve: %v -> %v", before, after)
	}
	bound, err := ldpmarginals.TheoreticalErrorBound("InpHT", ldpmarginals.BoundParams{
		N: ds.N(), D: ds.D, K: 2, Epsilon: 1.1,
	})
	if err != nil || bound <= 0 {
		t.Errorf("bound = %v, %v", bound, err)
	}
}
