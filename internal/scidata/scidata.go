// Package scidata generates smooth synthetic scientific fields standing
// in for the MIRANDA large-eddy-simulation dataset that paper Fig. 2
// contrasts with FL model parameters. The generator performs spectral
// synthesis: a sum of low-frequency modes with power-law amplitude
// decay, which reproduces the qualitative smoothness of density and
// velocity slices from hydrodynamics simulations.
package scidata

import (
	"math"

	"fedsz/internal/stats"
)

// Field describes a synthetic scientific field.
type Field struct {
	// Name labels the field ("density", "velocityy", ...).
	Name string
	// Modes is the number of spectral components.
	Modes int
	// Decay is the power-law exponent of the amplitude spectrum;
	// larger values give smoother fields.
	Decay float64
	// Offset shifts the field (density-like fields are positive).
	Offset float64
}

// Density returns a density-like field description (positive, very
// smooth — compare paper Fig. 2c).
func Density() Field {
	return Field{Name: "density", Modes: 12, Decay: 2.2, Offset: 2.5}
}

// VelocityY returns a velocity-component-like field description
// (signed, smooth with more mid-frequency content — paper Fig. 2d).
func VelocityY() Field {
	return Field{Name: "velocityy", Modes: 24, Decay: 1.6}
}

// Slice synthesizes a 1-D slice of n samples of the field. slice
// selects different phases, mirroring the paper's "slice 1" vs
// "slice 100" curves; the same (field, slice, n) triple is
// deterministic.
func (f Field) Slice(n, slice int) []float32 {
	rng := stats.NewRNG(int64(slice)*7919 + int64(len(f.Name)))
	type mode struct {
		freq, amp, phase float64
	}
	modes := make([]mode, f.Modes)
	for k := range modes {
		freq := float64(k + 1)
		modes[k] = mode{
			freq:  freq,
			amp:   1 / math.Pow(freq, f.Decay),
			phase: float64(float64(rng.Float64()) * 2 * math.Pi),
		}
	}
	out := make([]float32, n)
	for i := range out {
		x := float64(i) / float64(n)
		v := f.Offset
		for _, m := range modes {
			v += float64(m.amp * math.Sin(float64(2*math.Pi*m.freq*x)+m.phase))
		}
		out[i] = float32(v)
	}
	return out
}
