// Package query evaluates conjunction queries over privately estimated
// marginals — the workload the paper's introduction motivates ("the
// fraction of users that use product A, B but not C together"). A
// conjunction fixes the values of up to k attributes; its answer is a
// single cell-sum of the corresponding marginal, so any estimator that
// answers marginal queries answers conjunctions.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"ldpmarginals/internal/marginal"
)

// Term fixes one attribute to a boolean value.
type Term struct {
	// Attr is the attribute index.
	Attr int
	// Value is the required value.
	Value bool
}

// Conjunction is a set of terms over distinct attributes, interpreted as
// their logical AND.
type Conjunction struct {
	Terms []Term
}

// Validate checks the terms are non-empty, within d attributes, and
// attribute-distinct.
func (c Conjunction) Validate(d int) error {
	if len(c.Terms) == 0 {
		return fmt.Errorf("query: empty conjunction")
	}
	seen := map[int]bool{}
	for _, t := range c.Terms {
		if t.Attr < 0 || t.Attr >= d {
			return fmt.Errorf("query: attribute %d outside %d attributes", t.Attr, d)
		}
		if seen[t.Attr] {
			return fmt.Errorf("query: attribute %d repeated", t.Attr)
		}
		seen[t.Attr] = true
	}
	return nil
}

// Beta returns the attribute mask the conjunction touches.
func (c Conjunction) Beta() uint64 {
	var m uint64
	for _, t := range c.Terms {
		m |= 1 << uint(t.Attr)
	}
	return m
}

// gamma returns the full-domain index of the required values.
func (c Conjunction) gamma() uint64 {
	var g uint64
	for _, t := range c.Terms {
		if t.Value {
			g |= 1 << uint(t.Attr)
		}
	}
	return g
}

// Evaluate answers the conjunction from a marginal estimator: it fetches
// the marginal over the touched attributes and reads the single matching
// cell. d bounds the attribute space.
func Evaluate(est marginal.Estimator, c Conjunction, d int) (float64, error) {
	if err := c.Validate(d); err != nil {
		return 0, err
	}
	tab, err := est.Estimate(c.Beta())
	if err != nil {
		return 0, err
	}
	return tab.Cell(c.gamma()), nil
}

// Parse reads a conjunction from text such as
//
//	"CC=1 AND Tip=0"  or  "a0=1 AND a3=0"
//
// resolving attribute names through the resolver (which returns -1 for
// unknown names). Bare "aN" names are always accepted.
func Parse(s string, resolve func(name string) int) (Conjunction, error) {
	var c Conjunction
	if strings.TrimSpace(s) == "" {
		return c, fmt.Errorf("query: empty query string")
	}
	for _, clause := range strings.Split(s, " AND ") {
		clause = strings.TrimSpace(clause)
		eq := strings.SplitN(clause, "=", 2)
		if len(eq) != 2 {
			return c, fmt.Errorf("query: clause %q is not name=value", clause)
		}
		name := strings.TrimSpace(eq[0])
		valStr := strings.TrimSpace(eq[1])
		val, err := strconv.Atoi(valStr)
		if err != nil || (val != 0 && val != 1) {
			return c, fmt.Errorf("query: value %q must be 0 or 1", valStr)
		}
		attr := -1
		if resolve != nil {
			attr = resolve(name)
		}
		if attr < 0 && strings.HasPrefix(name, "a") {
			if idx, err := strconv.Atoi(name[1:]); err == nil {
				attr = idx
			}
		}
		if attr < 0 {
			return c, fmt.Errorf("query: unknown attribute %q", name)
		}
		c.Terms = append(c.Terms, Term{Attr: attr, Value: val == 1})
	}
	return c, nil
}

// Result is the outcome of evaluating one query string from a batch:
// either a parsed conjunction with its estimated fraction, or the parse/
// evaluation error for that query alone.
type Result struct {
	// Query is the original query string.
	Query string
	// Conj is the parsed conjunction (zero when Err is a parse error).
	Conj Conjunction
	// Fraction is the estimated population fraction matching the query.
	Fraction float64
	// Err is the per-query failure, nil on success.
	Err error
}

// EvaluateStrings parses and evaluates a batch of query strings against
// one estimator, isolating failures per query: a malformed or
// out-of-domain query yields a Result with Err set and does not stop the
// rest of the batch. The results align with the input order.
func EvaluateStrings(est marginal.Estimator, d int, resolve func(name string) int, queries []string) []Result {
	out := make([]Result, len(queries))
	for i, q := range queries {
		out[i].Query = q
		c, err := Parse(q, resolve)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Conj = c
		f, err := Evaluate(est, c, d)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Fraction = f
	}
	return out
}
