// Command app is the fixture's one binary.
package main

import (
	"encoding/json"
	"fmt"

	"fixture"
	"fixture/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	var c lib.Counter
	c.Hit()
	js, _ := json.Marshal(&lib.Report{Meta: lib.Meta{Version: 1}})
	fmt.Println(fixture.Label(), s.Area(), lib.Max(2, 3), lib.NewBox(4).Get(), lib.Circle{R: 1}.R, c.Hit())
	fmt.Println(lib.NewOuter(5).Size(), lib.Describe(lib.Tagged{}), lib.Level(2), string(js), lib.Distinct([][2]int{{1, 2}, {1, 2}}))
}
