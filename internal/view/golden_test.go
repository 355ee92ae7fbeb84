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
// Float64bits of its cells — recorded at commit 7a0e953, before the
// sub-k cube read its superset structure from the consistency plan.
// tv_error reads only the k-way tables and the incremental tests compare
// the build against itself, so this is what pins the served cube. Never
// re-record these to make the test pass.
var viewGolden = map[string]string{
	"InpRR/d=8,k=2/raw=false":  "8ef7009d885360ef9b7ca209a3d6f3115a402c27e8df52f5d90fb88c315bdf7e",
	"InpRR/d=8,k=2/raw=true":   "109ecfcf47151d6cb139a43eaf0b4de02dbee00555b6ae48b24a8bd43d400ed2",
	"InpPS/d=8,k=2/raw=false":  "b06d78bcd97496e3d94bd4448f4ee60c6fa0809d3a0132d9deff780230e485c1",
	"InpPS/d=8,k=2/raw=true":   "27b60e38a312cb3f7419292f08ae90d60b93d91fb9892781de01a56f3666dd57",
	"InpHT/d=8,k=2/raw=false":  "30d4b76baaee838107e7a00632efec47b5b32c96ce3c7f694e908f09f53fdddb",
	"InpHT/d=8,k=2/raw=true":   "f816dceba0c17fb7f48cbed7dd00f84293c9f7ca9cc43df09b40f136043affe1",
	"MargRR/d=8,k=2/raw=false": "cadc72b729460da7f0967ac8500d77a3414a3beb47f81561f78472e8205ff0a1",
	"MargRR/d=8,k=2/raw=true":  "87f24c0b78fe3bd310a851702a9f88045cca0dd04e54b25240e59461686bd8d9",
	"MargPS/d=8,k=2/raw=false": "6055d5b38910015a6c6f4af98b406428e94809b06572aacff7a584ea5c6cdde6",
	"MargPS/d=8,k=2/raw=true":  "af8cd97575b4b12ad333d5d49988eb760703297bc4b10ff00a658b7c422402cd",
	"MargHT/d=8,k=2/raw=false": "f439f639099132278d0b1a19dbc7622e80759161dcd4e675e43faccd260a397b",
	"MargHT/d=8,k=2/raw=true":  "35854af9ca6a2035a57fd006f98d1ccad649ab46b111e166aa65b28b563e360d",
	"InpRR/d=6,k=3/raw=false":  "4a868604fee9796cd7cfa374bf2d40e4177d6a3e149d30d1778c62c2cea87d15",
	"InpRR/d=6,k=3/raw=true":   "d85773c7a721236b752b1edce20f3e224dd2957dc6c8d767934139546bdfc85c",
	"InpPS/d=6,k=3/raw=false":  "ffd67b1cbeca817bf8c4fb21637cd268309d8cd79a4347d067df359717a1306e",
	"InpPS/d=6,k=3/raw=true":   "d0d87fb4bac76869d5c709728e72035751da2a3f46188b4928954d3401fd7c69",
	"InpHT/d=6,k=3/raw=false":  "68e9dd75f4e6c4a811f68986ebbf8ff893144cffb5c906db93fa2ca494f24933",
	"InpHT/d=6,k=3/raw=true":   "af5c7ae3d418869402cfdc9c7dc1b2389d17edf038f367f86e037576dfab16c6",
	"MargRR/d=6,k=3/raw=false": "a442155e47d7b9817a04e8425153e88eee206f3e113fcfc90adef80cf9a1b3b2",
	"MargRR/d=6,k=3/raw=true":  "8b4e4e3960af1024b207ee27d6186d5416223e57f183a5e6698ff913ac3c51c1",
	"MargPS/d=6,k=3/raw=false": "1811e2cd8d161ed6a3ca4951356ed7fd23a13cb75cc3bc1efd874fe36f1d9a95",
	"MargPS/d=6,k=3/raw=true":  "81ec98ba564b8932c4b281c8ebd14a9d96e792a43cbe7ac2283a302c4097d31c",
	"MargHT/d=6,k=3/raw=false": "766ac4ed34bdebd2c1823cb7e25f61d7485a7c49814769c129a54d74d5e2f130",
	"MargHT/d=6,k=3/raw=true":  "a6db5abe6775e0a5939b5b054e7bdc370ae1947a9d26dff7b223b441a95f8d98",
	"InpRR/d=4,k=4/raw=false":  "57946d32ace94c5a29c8ea68fac1234dd7de8b41a1454c943e68c053ac5330cf",
	"InpRR/d=4,k=4/raw=true":   "f80e6216eba08e386a7cdd727bd8f48376cf31718f2c82f48b91cfac1ee759e1",
	"InpPS/d=4,k=4/raw=false":  "efd26d4c8946b5ee790ef2b084858b0f1c02f1adb472fda69e1d5e7ef4af7d9a",
	"InpPS/d=4,k=4/raw=true":   "10f551adee62be45333f0db93b72c620541626a3d7a8699077e1a3df4d57ee6b",
	"InpHT/d=4,k=4/raw=false":  "37d644d760959f18090c75247d5e3cf24c2969d03dea39508c3daf3c60f03233",
	"InpHT/d=4,k=4/raw=true":   "ce5982a0b0e52524149117e1ceaa1834ea61a80afc9e4190f1bcd8619c559c1d",
	"MargRR/d=4,k=4/raw=false": "89f28bacdc5d301132bc265f4b23d8898b01b312dd276a410507881359e8cb04",
	"MargRR/d=4,k=4/raw=true":  "3128087fd7bd1d10f458783201ddbf603dc278c807f18e5cb163041ade87fc89",
	"MargPS/d=4,k=4/raw=false": "e87170f242d2ec83374bf4e5615ee44b02b3e9843d3fc064e741ea9aa3aca77f",
	"MargPS/d=4,k=4/raw=true":  "e487ca85a7032f293b7cc1ab920cf8242f56dfe420a379356303793982f9bf9f",
	"MargHT/d=4,k=4/raw=false": "98fdbf3770e11b3b889c96d7e10e2d10a933a3cba6e2f044b72c72395bb6a3be",
	"MargHT/d=4,k=4/raw=true":  "80ced76c504ae8ff472a72bc55923275f9f86a6882d4a3027fa503382e8307aa",
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
