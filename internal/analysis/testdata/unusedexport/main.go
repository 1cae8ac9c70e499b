// Command fixturemod is the production caller of the unusedexport fixture.
package main

import (
	"fmt"

	"fixturemod/internal/lib"
)

func main() {
	q := lib.Queue{2, 1}
	lib.Init(&q)
	fmt.Println(lib.Used(), lib.Sum(lib.Opts{Set: 1}), lib.Label{Name: "x"})
}
