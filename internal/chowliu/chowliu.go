// Package chowliu implements Chow-Liu dependency trees (Section 6.2):
// the optimal first-order tree approximation of a joint distribution is
// the maximum-weight spanning tree of the complete graph whose edge
// weights are pairwise mutual informations. Trees can be fitted from
// exact or LDP-estimated marginals, scored by total mutual information,
// converted to conditional probability tables, sampled, and used for
// likelihood computations.
package chowliu

import (
	"fmt"
	"math"
	"sort"

	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/stats"
)

// Edge is an undirected tree edge between two attributes with its mutual
// information weight.
type Edge struct {
	A, B int
	MI   float64
}

// Tree is a fitted Chow-Liu dependency tree over d binary attributes.
type Tree struct {
	// D is the number of attributes.
	D int
	// Edges holds the d-1 tree edges in the order Kruskal selected them.
	Edges []Edge
	// TotalMI is the sum of edge mutual informations — the quantity the
	// paper compares across privacy mechanisms in Figure 8.
	TotalMI float64
}

// unionFind is a standard disjoint-set structure for Kruskal's algorithm.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// PairMI computes the mutual-information weight matrix from a marginal
// estimator (exact dataset marginals or an LDP aggregator): entry (i,j)
// is I(X_i; X_j) of the estimated 2-way marginal.
func PairMI(est marginal.Estimator, d int) ([][]float64, error) {
	if d < 2 {
		return nil, fmt.Errorf("chowliu: need at least 2 attributes, got %d", d)
	}
	mi := make([][]float64, d)
	for i := range mi {
		mi[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			beta := uint64(1)<<uint(i) | uint64(1)<<uint(j)
			tab, err := est.Estimate(beta)
			if err != nil {
				return nil, fmt.Errorf("chowliu: estimating pair (%d,%d): %w", i, j, err)
			}
			v, err := stats.MutualInformation(tab)
			if err != nil {
				return nil, err
			}
			mi[i][j] = v
			mi[j][i] = v
		}
	}
	return mi, nil
}

// Fit computes the maximum-weight spanning tree of the mutual-information
// matrix with Kruskal's algorithm. Ties are broken deterministically by
// (A, B) order so fits are reproducible.
func Fit(mi [][]float64) (*Tree, error) {
	d := len(mi)
	if d < 2 {
		return nil, fmt.Errorf("chowliu: need at least 2 attributes, got %d", d)
	}
	var edges []Edge
	for i := 0; i < d; i++ {
		if len(mi[i]) != d {
			return nil, fmt.Errorf("chowliu: MI matrix is ragged")
		}
		for j := i + 1; j < d; j++ {
			w := mi[i][j]
			if math.IsNaN(w) {
				return nil, fmt.Errorf("chowliu: MI(%d,%d) is NaN", i, j)
			}
			edges = append(edges, Edge{A: i, B: j, MI: w})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].MI != edges[b].MI {
			return edges[a].MI > edges[b].MI
		}
		if edges[a].A != edges[b].A {
			return edges[a].A < edges[b].A
		}
		return edges[a].B < edges[b].B
	})
	uf := newUnionFind(d)
	tree := &Tree{D: d}
	for _, e := range edges {
		if uf.union(e.A, e.B) {
			tree.Edges = append(tree.Edges, e)
			tree.TotalMI += e.MI
			if len(tree.Edges) == d-1 {
				break
			}
		}
	}
	if len(tree.Edges) != d-1 {
		return nil, fmt.Errorf("chowliu: spanning tree incomplete (%d of %d edges)", len(tree.Edges), d-1)
	}
	return tree, nil
}

// FitFromEstimator combines PairMI and Fit.
func FitFromEstimator(est marginal.Estimator, d int) (*Tree, error) {
	mi, err := PairMI(est, d)
	if err != nil {
		return nil, err
	}
	return Fit(mi)
}

// HasEdge reports whether the undirected edge (a, b) is in the tree.
func (t *Tree) HasEdge(a, b int) bool {
	for _, e := range t.Edges {
		if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
			return true
		}
	}
	return false
}

// Adjacency returns the neighbour lists of the tree.
func (t *Tree) Adjacency() [][]int {
	adj := make([][]int, t.D)
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	return adj
}

// Model is a Chow-Liu tree with fitted conditional probability tables,
// defining a full joint distribution that can be sampled and scored.
type Model struct {
	// Parent[v] is v's parent in the rooted tree (-1 for the root).
	Parent []int
	// RootDist is P(X_root = 1).
	RootDist float64
	// CPT[v][pv] is P(X_v = 1 | X_parent(v) = pv) for non-root v.
	CPT [][2]float64
	// Order is a topological order (root first) for sampling.
	Order []int
}

// BuildModel orients the tree at root and fills conditional probability
// tables from the estimator's 1- and 2-way marginals. Estimated tables
// are simplex-projected, so the CPTs are valid probabilities even when
// the underlying estimates have noise-induced negative cells.
func BuildModel(tree *Tree, est marginal.Estimator, root int) (*Model, error) {
	if root < 0 || root >= tree.D {
		return nil, fmt.Errorf("chowliu: root %d out of range", root)
	}
	adj := tree.Adjacency()
	m := &Model{
		Parent: make([]int, tree.D),
		CPT:    make([][2]float64, tree.D),
	}
	for i := range m.Parent {
		m.Parent[i] = -1
	}
	// BFS orientation.
	visited := make([]bool, tree.D)
	queue := []int{root}
	visited[root] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		m.Order = append(m.Order, v)
		for _, w := range adj[v] {
			if !visited[w] {
				visited[w] = true
				m.Parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	if len(m.Order) != tree.D {
		return nil, fmt.Errorf("chowliu: tree is disconnected")
	}
	// Root marginal.
	rootTab, err := est.Estimate(1 << uint(root))
	if err != nil {
		return nil, err
	}
	rootTab = rootTab.Clone().ProjectToSimplex()
	m.RootDist = rootTab.Cells[1]
	// Child CPTs from pairwise marginals.
	for _, v := range m.Order {
		p := m.Parent[v]
		if p < 0 {
			continue
		}
		beta := uint64(1)<<uint(v) | uint64(1)<<uint(p)
		tab, err := est.Estimate(beta)
		if err != nil {
			return nil, err
		}
		tab = tab.Clone().ProjectToSimplex()
		// Compact cell layout: bit order follows attribute index order.
		vFirst := v < p
		joint := func(vv, pv int) float64 {
			var cell int
			if vFirst {
				cell = vv | pv<<1
			} else {
				cell = pv | vv<<1
			}
			return tab.Cells[cell]
		}
		for pv := 0; pv < 2; pv++ {
			den := joint(0, pv) + joint(1, pv)
			if den <= 0 {
				m.CPT[v][pv] = 0.5 // no evidence: neutral
				continue
			}
			m.CPT[v][pv] = joint(1, pv) / den
		}
	}
	return m, nil
}

// Sample draws one record from the fitted model.
func (m *Model) Sample(r *rng.RNG) uint64 {
	var rec uint64
	for _, v := range m.Order {
		var p float64
		if m.Parent[v] < 0 {
			p = m.RootDist
		} else {
			pv := 0
			if rec&(1<<uint(m.Parent[v])) != 0 {
				pv = 1
			}
			p = m.CPT[v][pv]
		}
		if r.Bernoulli(p) {
			rec |= 1 << uint(v)
		}
	}
	return rec
}

// LogLikelihood returns the mean per-record log2-likelihood of records
// under the model. Zero-probability events are floored at 1e-12 to keep
// the result finite.
func (m *Model) LogLikelihood(records []uint64) (float64, error) {
	if len(records) == 0 {
		return 0, fmt.Errorf("chowliu: no records to score")
	}
	const floor = 1e-12
	var total float64
	for _, rec := range records {
		for _, v := range m.Order {
			var p float64
			if m.Parent[v] < 0 {
				p = m.RootDist
			} else {
				pv := 0
				if rec&(1<<uint(m.Parent[v])) != 0 {
					pv = 1
				}
				p = m.CPT[v][pv]
			}
			if rec&(1<<uint(v)) == 0 {
				p = 1 - p
			}
			if p < floor {
				p = floor
			}
			total += math.Log2(p)
		}
	}
	return total / float64(len(records)), nil
}
