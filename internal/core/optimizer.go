package core

import (
	"math"

	"bpar/internal/tensor"
)

// AdamOpts configures the Adam optimizer. Enable by setting Engine.Adam;
// it then takes precedence over plain SGD.
type AdamOpts struct {
	Beta1, Beta2, Eps float64
}

// DefaultAdam returns the standard Adam hyper-parameters.
func DefaultAdam() *AdamOpts { return &AdamOpts{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8} }

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
func adamUpdate(w, g, m, v []float64, lr float64, o *AdamOpts, c1, c2 float64) {
	for i, gi := range g {
		m[i] = o.Beta1*m[i] + (1-o.Beta1)*gi
		v[i] = o.Beta2*v[i] + (1-o.Beta2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		w[i] -= lr * mhat / (math.Sqrt(vhat) + o.Eps)
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
	c1 := 1 - math.Pow(e.Adam.Beta1, float64(st.step))
	c2 := 1 - math.Pow(e.Adam.Beta2, float64(st.step))
	for i, p := range params {
		g, m, v := grads[i], st.m[i], st.v[i]
		adamUpdate(p.W.Data, g.W.Data, m.W.Data, v.W.Data, lr, e.Adam, c1, c2)
		adamUpdate(p.B, g.B, m.B, v.B, lr, e.Adam, c1, c2)
	}
}
