package core

import (
	"math"

	"bpar/internal/tensor"
)

// Adam's standard hyper-parameters. They are typed, so each is rounded to
// float64 first and 1-adamBeta1 is the float64 subtraction; an untyped 0.9
// would fold 1-0.9 exactly, a different float64 that moves the Adam pins.
const (
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// adamState holds the first and second moment estimates for every
// parameter, plus the step counter for bias correction.
type adamState struct {
	step int
	m, v []wb
}

// newMoment returns one of Adam's two zeroed moment estimates, shaped like
// params entry for entry.
func newMoment(params []param) []wb {
	v := make([]wb, len(params))
	for i, p := range params {
		v[i] = wb{tensor.New(p.W.Rows, p.W.Cols), make([]float64, len(p.B))}
	}
	return v
}

// adamUpdate applies one Adam step to parameters w given normalized
// gradients g and moment buffers m, v (all equal-length slices).
func adamUpdate(w, g, m, v []float64, lr, c1, c2 float64) {
	for i, gi := range g {
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		w[i] -= lr * mhat / (math.Sqrt(vhat) + adamEps)
	}
}

// applyAdam performs one full-model Adam step from the (already normalized
// and optionally clipped) gradients.
func (e *Engine) applyAdam(params []param, grads []gradRef, lr float64) {
	if e.adam == nil {
		e.adam = &adamState{m: newMoment(params), v: newMoment(params)}
	}
	st := e.adam
	st.step++
	c1 := 1 - math.Pow(adamBeta1, float64(st.step))
	c2 := 1 - math.Pow(adamBeta2, float64(st.step))
	for i, p := range params {
		g, m, v := grads[i], st.m[i], st.v[i]
		adamUpdate(p.W.Data, g.W.Data, m.W.Data, v.W.Data, lr, c1, c2)
		adamUpdate(p.B, g.B, m.B, v.B, lr, c1, c2)
	}
}
