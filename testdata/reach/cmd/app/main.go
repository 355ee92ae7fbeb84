// Command app is the fixture's one binary.
package main

import (
	"fmt"

	"fixture"
	"fixture/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(fixture.Label(), s.Area(), lib.Max(2, 3), lib.NewBox(4).Get())
}
