// Package lib holds dead code among declarations and fields that are
// reached only indirectly.
package lib

import "fmt"

// Shape is the interface through which the binary calls Square.Area.
type Shape interface{ Area() int }

// Square is built by the binary, which never names Area.
type Square struct{ Side int }

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Circle is used by the binary only through its field, and no Circle
// becomes a Shape.
type Circle struct{ R int }

// The compile-time assertion converts nothing at run time.
var _ Shape = (*Circle)(nil)

// Area is dead: only the name of Shape's method, which no Circle is
// converted to, could keep it.
func (c *Circle) Area() int { return 3 * c.R * c.R }

// Counter counts hits; last is written on every hit and never read.
type Counter struct {
	hits int
	last int
}

// Hit counts one hit and returns the count so far.
func (c *Counter) Hit() int {
	c.hits++
	c.last = c.hits
	return c.hits
}

// Sizer is the interface through which the binary calls inner.Size.
type Sizer interface{ Size() int }

type inner struct{ n int }

// Size is reached only as a method Outer promotes.
func (i inner) Size() int { return i.n }

// Outer embeds inner and declares no method of its own.
type Outer struct{ inner }

// NewOuter returns an Outer as a Sizer.
func NewOuter(n int) Sizer { return Outer{inner{n}} }

// Namer is named only by a type assertion.
type Namer interface{ Name() string }

// Tagged is converted to any, never to Namer.
type Tagged struct{}

// Name is reached only through the assertion in Describe.
func (Tagged) Name() string { return "tagged" }

// Describe names v if it has a name.
func Describe(v any) string {
	if n, ok := v.(Namer); ok {
		return n.Name()
	}
	return "?"
}

// Level is printed by the binary.
type Level int

// String is reached only from fmt.
func (l Level) String() string { return fmt.Sprintf("L%d", int(l)) }

// Report is encoded by the binary with encoding/json.
type Report struct{ Meta Meta }

// Meta is reached only through Report's exported field.
type Meta struct {
	// Version is read only by encoding/json.
	Version int
}

// Key is a map key; its fields are written only in a literal.
type Key struct{ a, b int }

// Distinct counts the distinct pairs.
func Distinct(pairs [][2]int) int {
	seen := map[Key]bool{}
	for _, p := range pairs {
		seen[Key{p[0], p[1]}] = true
	}
	return len(seen)
}

// Registry is built when the program starts, so its initializer is a
// root.
var Registry = build()

// scale is reached only through Registry's initializer.
var scale = 3

func build() map[string]int { return map[string]int{"scale": scale} }

// Max is reached only through an instantiation.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Box is generic; the binary calls Get on a Box[int].
type Box[T any] struct{ v T }

// NewBox returns a Box holding v.
func NewBox[T any](v T) Box[T] { return Box[T]{v: v} }

// Get is reached only through an instantiated receiver.
func (b Box[T]) Get() T { return b.v }

// Dead is reached from nothing.
func Dead() int { return 0 }
