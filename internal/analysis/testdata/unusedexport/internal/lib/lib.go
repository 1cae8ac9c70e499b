package lib // want "allowlist entry lib.Gone matches no unused exported name"

import "container/heap"

// Used has a production caller.
func Used() int { return 1 }

// Oracle is only called by tests, but the allowlist keeps it.
func Oracle() int { return 2 }

func TestOnly() int { return 3 } // want "no non-test code uses lib.TestOnly"

// Opts is an options struct: production sets Set, only tests set Unset.
type Opts struct {
	Set   int
	Unset int // want "no non-test code sets lib.Opts.Unset: an option with one value in production"
}

// Sum reads both options; reading a field does not count as setting it.
func Sum(o Opts) int { return o.Set + o.Unset }

// Queue's heap methods are used through its conversion to heap.Interface.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *Queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

func (q Queue) Peek() int { return q[0] } // want "no non-test code uses lib.Queue.Peek"

// Init heapifies q.
func Init(q *Queue) { heap.Init(q) }

// Label is printed with fmt, which finds String at run time.
type Label struct{ Name string }

func (l Label) String() string { return "label " + l.Name }
