package lib

import "testing"

// Test files are no callers: these uses leave TestOnly, Opts.Unset and
// Queue.Peek reported.
func TestUses(t *testing.T) {
	q := Queue{3, 1, 2}
	Init(&q)
	if TestOnly()+Oracle() != 5 || Sum(Opts{Unset: 1}) != 1 || q.Peek() != 1 {
		t.Fatal("fixture broken")
	}
}
