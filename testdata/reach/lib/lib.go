// Package lib holds one dead function among declarations that are
// reached only indirectly.
package lib

// Shape is the interface through which the binary calls Square.Area.
type Shape interface{ Area() int }

// Square is built by the binary, which never names Area.
type Square struct{ Side int }

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

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
