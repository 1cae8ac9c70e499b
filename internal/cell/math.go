package cell

import (
	"math"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// fillUniform fills data uniformly in ±1/√fanIn (Xavier/Glorot). It draws
// the same float64 stream regardless of E, so an f32-initialized model is
// the rounded image of the f64 model with the same seed (weight
// initialization in practice happens at f64 and is converted).
func fillUniform[E tensor.Elt](r *rng.RNG, data []E, fanIn int) {
	scale := 1.0 / math.Sqrt(float64(fanIn))
	if d, ok := any(data).([]float64); ok {
		r.FillUniform(d, -scale, scale)
		return
	}
	tmp := make([]float64, len(data))
	r.FillUniform(tmp, -scale, scale)
	tensor.ConvertSlice(data, tmp)
}
