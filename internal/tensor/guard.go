package tensor

import "sync/atomic"

// AccessHook observes kernel-level matrix accesses: write is the matrix the
// kernel mutates (nil for read-only kernels), reads are the matrices it
// consumes. Matrices arrive as `any` because kernels are generic over the
// element type: a value is always a *Mat[float64] or *Mat[float32], and the
// taskrt dependency sanitizer matches them to registered buffers by pointer
// identity, which is dtype-agnostic.
//
// The hook fires on the goroutine executing the kernel; implementations must
// be safe for concurrent use. Element-level accessors (At, Set, Row, Data)
// are not guarded — the sanitizer sees the coarse kernel calls that dominate
// every task body, which is the granularity dependency annotations describe.
type AccessHook func(write any, reads []any)

// accessHook holds the installed hook; nil means guarding is disabled and
// each kernel pays only an atomic load and branch.
var accessHook atomic.Pointer[AccessHook]

// SetAccessHook installs h as the process-wide access hook. Passing nil
// disables guarding. Only one hook is active at a time; the dependency
// sanitizer owns it for the duration of a checked run.
func SetAccessHook(h AccessHook) {
	if h == nil {
		accessHook.Store(nil)
		return
	}
	accessHook.Store(&h)
}

// The guard helpers keep the disabled path allocation-free: the reads slice
// is only materialized after the nil check.

func guardW[E Elt](w *Mat[E]) {
	if h := accessHook.Load(); h != nil {
		(*h)(w, nil)
	}
}

func guardWR[E Elt](w, a *Mat[E]) {
	if h := accessHook.Load(); h != nil {
		(*h)(w, []any{a})
	}
}

func guardWRR[E Elt](w, a, b *Mat[E]) {
	if h := accessHook.Load(); h != nil {
		(*h)(w, []any{a, b})
	}
}

func guardR[E Elt](a *Mat[E]) {
	if h := accessHook.Load(); h != nil {
		(*h)(nil, []any{a})
	}
}
