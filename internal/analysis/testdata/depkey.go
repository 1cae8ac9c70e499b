// Fixture for the depkey pass: dependency keys must have reference
// identity, never value equality.
package fixture

import "bpar/internal/taskrt"

type keyPair struct{ a, b int }

func badValueKeys(rec *taskrt.Capture, chain int) {
	k := 7
	rec.Submit(&taskrt.Task{
		Label: "value-keys",
		In: []taskrt.Dep{
			chain,         // want "value-typed dependency key \\(int\\)"
			keyPair{1, 2}, // want "value-typed dependency key"
			[2]int{3, 4},  // want "value-typed dependency key"
			&k,            // pointer: fine
		},
	})

	deps := []taskrt.Dep{}
	deps = append(deps, chain) // want "value-typed dependency key \\(int\\)"
	deps = append(deps, &k)
	rec.Submit(&taskrt.Task{Label: "grown", InOut: deps})
}
