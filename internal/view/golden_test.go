package view

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ldpmarginals/internal/core"
)

// viewGolden holds SHA-256 digests of Build's served tables — every
// k-way table, then the sub-k cube, each as its mask followed by the
// Float64bits of its cells — recorded when the nonlinear stage became
// closed-form consistency projections alternated with simplex
// projections, with extrapolated steps, to agreement (consistency.Plan.
// Agree), and the cube the inverse transform of the
// weighted coefficient means (CHANGES.md lists the largest cell change
// per protocol against the three-sweep build before it). tv_error reads
// only the k-way tables and the incremental tests compare the build
// against itself, so this is what pins the served cube. Never re-record
// these to make the test pass.
var viewGolden = map[string]string{
	"InpRR/d=8,k=2/raw=false":  "640beabc626f727a28bc28412968ec54d47ca37d4e39408f69afba9eac364b27",
	"InpRR/d=8,k=2/raw=true":   "bdad44d0892d4de6a66516b776b7f034eedd4314054494bba6cb63a7e5dd6fa5",
	"InpPS/d=8,k=2/raw=false":  "7ed441324de52e467910bc80639412f085cf8a3f0ce9e4c067346e24d5b34ce5",
	"InpPS/d=8,k=2/raw=true":   "f2b877f08bde4659a776b768557f3694fa8ee34d51aefa4585d75f70c7343775",
	"InpHT/d=8,k=2/raw=false":  "2fcf34a02cbe63a7413c683535930c4c0789ace257296d642a1df7ede6cda4e7",
	"InpHT/d=8,k=2/raw=true":   "8e612bdee677c76fd7c96dd41f7535756258b4ccbccdcf41aac1c5d987b4bb1e",
	"MargRR/d=8,k=2/raw=false": "16ee9aa4426eb294fb40a2fb332f2f5c59d1aa846db9ab0d12bb87e917ffd624",
	"MargRR/d=8,k=2/raw=true":  "a2e3bf7bf41a6d82b659bb7ab1a6a5a367e52cc8f7d9af3a9c0e451ce26997c8",
	"MargPS/d=8,k=2/raw=false": "7f9d98517642edc70c030fd142129f7f20d3556d7e9c6318d0c70622363b442d",
	"MargPS/d=8,k=2/raw=true":  "a257b9fd236e3d79a93209a2b3a067f5da454b3a9a58c7bc17a80f7f20bbb263",
	"MargHT/d=8,k=2/raw=false": "30bff8b1c1de92c4321cd61e50ce98279f5f591430320257bb84c187c87662da",
	"MargHT/d=8,k=2/raw=true":  "4dd5863541b09757831e26585fcbf660906f739b7d387c873dd3ddb46c298b5d",
	"InpRR/d=6,k=3/raw=false":  "81e5c646c536e5c8ac6d699804220f003ac06bd9bc2ea4416d353834aeef2b43",
	"InpRR/d=6,k=3/raw=true":   "cbb1bb65052a859efc7cce476aac11a9e9b6746ee47d2883c8a63b2e8e6eca03",
	"InpPS/d=6,k=3/raw=false":  "8ecb9378ad8e6ee5294e1d6ed3c0849d1140fb1615dae81e714fbb61a0ac27aa",
	"InpPS/d=6,k=3/raw=true":   "69375abfbc104e4c64fc1c011b442e19780125fa4075f680322bab0ce6c09105",
	"InpHT/d=6,k=3/raw=false":  "36244b08a85cde06868e363e25cfa0117e41374a72020a67ad5f9327c8f4e300",
	"InpHT/d=6,k=3/raw=true":   "8ecc4ef3db2f95e36b9fac53a9a3d3f36a2797bad0f566e13a36b8cc57e94f31",
	"MargRR/d=6,k=3/raw=false": "7250f918dce8be990c3c603327b5bf698f9ff90bd2c51a22a0155718772e4197",
	"MargRR/d=6,k=3/raw=true":  "1f0d60c4dbc5451388e35a8ba0f0b3b256abc864120839e19b3ac909c1f112af",
	"MargPS/d=6,k=3/raw=false": "80cd341a2351655d4b1f444e4f6d9fd6a34a8e027649a3091c0cff5a3b080269",
	"MargPS/d=6,k=3/raw=true":  "142b3f5a0365a81a18cead9b17946bf5c65e1893fd4f98588f30a6a72e53ae06",
	"MargHT/d=6,k=3/raw=false": "1f3ebef7a79383b16e258ab6353c651d4150c10878b3fe325e170390d147765e",
	"MargHT/d=6,k=3/raw=true":  "c6b5a61e6ead62d21fb8b907b051046f738b0c5fb8c43547e901379a22ca9ec4",
	"InpRR/d=4,k=4/raw=false":  "27b5c4b2702fa85291bf96c393b20928d542ce49203f3820445db57fa5eaf3a8",
	"InpRR/d=4,k=4/raw=true":   "2f19635f85e60b71b99e1994815293267a1d002862062d812d8612704ae1e789",
	"InpPS/d=4,k=4/raw=false":  "baee0ccf46fbede60d1703cb4168b95bff4ace2a4f595746ee587b82a47032bd",
	"InpPS/d=4,k=4/raw=true":   "ec4c822407a7c0d9717d41dec21ba97802752b5d83fd82df83c6f0a866b846bb",
	"InpHT/d=4,k=4/raw=false":  "04c33419b260f62dd0a09e487c6851298436a13616903a144aa2259ee33cb4bd",
	"InpHT/d=4,k=4/raw=true":   "cc89905a1bfa8acf1e266f769e29246d7de6f76e8a5a8c5adc0c6ed2f7f86bdb",
	"MargRR/d=4,k=4/raw=false": "11e7c7f7c3a5fd8ebf3a819ab8019ce4dd090913afd9a0388f0a548798642e50",
	"MargRR/d=4,k=4/raw=true":  "ee30a6fde6e4a11087e7b57504f9d2eca16c591f7418cf76f9b5ea6086a7e7a9",
	"MargPS/d=4,k=4/raw=false": "9dbe3ff560ee274e5634a60c9bce43584a097edda60ea2187e5849dd5867af07",
	"MargPS/d=4,k=4/raw=true":  "587226a883aa5242577ab2cbf850206c6ea1de6f4ccc7079bcb0ca6cea452ad1",
	"MargHT/d=4,k=4/raw=false": "f13dd5095e3db2802084caa7778ba1312ebf2c973bccc292cd0ddf1cdc6559d1",
	"MargHT/d=4,k=4/raw=true":  "ffd8f974418088acb97c259409c3df3736b74d2d28066c0e2ee2abf7300f3af6",
}

func viewDigest(v *View) string {
	h := sha256.New()
	var word [8]byte
	for _, t := range v.tables {
		binary.LittleEndian.PutUint64(word[:], t.Beta)
		h.Write(word[:])
		for _, c := range t.Cells {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(c))
			h.Write(word[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestViewGoldenBytes builds a view over fixed-seed reports for all six
// protocols at (d, k) = (8, 2), (6, 3) and (4, 4) — the last has one
// k-way table, so no sub-marginal is shared and the sub-k cube reads a
// single superset — with and without RawCells, and compares every
// served table bit for bit against the recorded digests.
func TestViewGoldenBytes(t *testing.T) {
	for _, shape := range []struct{ d, k int }{{8, 2}, {6, 3}, {4, 4}} {
		cfg := core.Config{D: shape.d, K: shape.k, Epsilon: 1.1, OptimizedPRR: true}
		for _, kind := range core.AllKinds() {
			p, err := core.New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg := p.NewAggregator()
			if err := agg.ConsumeBatch(perturb(t, p, 3000, uint64(kind)+31)); err != nil {
				t.Fatal(err)
			}
			for _, raw := range []bool{false, true} {
				name := fmt.Sprintf("%v/d=%d,k=%d/raw=%v", kind, shape.d, shape.k, raw)
				v, err := Build(agg, p, Options{RawCells: raw})
				if err != nil {
					t.Fatal(err)
				}
				if got := viewDigest(v); got != viewGolden[name] {
					t.Errorf("%s: %d served tables hash to %s, want %s", name, len(v.tables), got, viewGolden[name])
				}
			}
		}
	}
}
