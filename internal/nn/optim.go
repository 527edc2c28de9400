package nn

import (
	"fmt"
	"math"

	"vtmig/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) with bias
// correction, the optimizer used for the paper's PPO updates.
type Adam struct {
	// LR is the learning rate (the paper uses 1e-5).
	LR float64
	// Beta1 and Beta2 are the exponential decay rates for the first and
	// second moment estimates.
	Beta1, Beta2 float64
	// Eps avoids division by zero.
	Eps float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: Adam learning rate must be positive, got %g", lr))
	}
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*Param][]float64),
		v:     make(map[*Param][]float64),
	}
}

// Step applies one Adam update to every parameter from its accumulated
// gradient times gradScale, and resets every gradient to +0, so the next
// BackwardBatch accumulates from zero. gradScale is ClipGradNorm's
// factor, or 1 to apply the gradients as they are: each gradient is read
// once, in mat.AdamStep's single pass over the parameter.
func (a *Adam) Step(params []*Param, gradScale float64) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Value))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.Value))
		}
		mat.AdamStep(p.Value, p.Grad, m, a.v[p], gradScale, a.Beta1, a.Beta2, a.LR, c1, c2, a.Eps)
	}
}

// StateSnapshot captures the optimizer state over the given parameters as
// a checkpoint section: the global step count and a copy of every
// parameter's first/second moment estimates (zeros for parameters the
// optimizer has not stepped yet, which is how Step would initialize
// them). Parameter names must be unique.
func (a *Adam) StateSnapshot(params []*Param) (*OptState, error) {
	st := &OptState{
		Algo: "adam",
		Step: a.t,
		M:    make(map[string][]float64, len(params)),
		V:    make(map[string][]float64, len(params)),
	}
	for _, p := range params {
		if _, dup := st.M[p.Name]; dup {
			return nil, fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		m := make([]float64, len(p.Value))
		v := make([]float64, len(p.Value))
		if am, ok := a.m[p]; ok {
			copy(m, am)
			copy(v, a.v[p])
		}
		st.M[p.Name] = m
		st.V[p.Name] = v
	}
	return st, nil
}

// RestoreState replaces the optimizer state with a checkpointed one. The
// match must be exact: the state must cover every parameter (and no
// others) with moment vectors of the right length, so a checkpoint from a
// different architecture fails loudly. After a restore, Step continues
// exactly as the snapshotted optimizer would have.
func (a *Adam) RestoreState(params []*Param, st *OptState) error {
	if st == nil {
		return fmt.Errorf("nn: nil optimizer state")
	}
	if st.Algo != "adam" {
		return fmt.Errorf("nn: optimizer state algo %q, want adam", st.Algo)
	}
	if st.Step < 0 {
		return fmt.Errorf("nn: optimizer state step %d is negative", st.Step)
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		for label, moments := range map[string]map[string][]float64{"m": st.M, "v": st.V} {
			mv, ok := moments[p.Name]
			if !ok {
				return fmt.Errorf("nn: optimizer state missing %s for parameter %q", label, p.Name)
			}
			if len(mv) != len(p.Value) {
				return fmt.Errorf("nn: optimizer state %s for %q has length %d, want %d", label, p.Name, len(mv), len(p.Value))
			}
		}
	}
	for label, moments := range map[string]map[string][]float64{"m": st.M, "v": st.V} {
		if extra := extraNames(moments, seen); len(extra) > 0 {
			return fmt.Errorf("nn: optimizer state %s carries unknown parameters %v", label, extra)
		}
	}
	a.t = st.Step
	a.m = make(map[*Param][]float64, len(params))
	a.v = make(map[*Param][]float64, len(params))
	for _, p := range params {
		a.m[p] = append([]float64(nil), st.M[p.Name]...)
		a.v[p] = append([]float64(nil), st.V[p.Name]...)
	}
	return nil
}

// ClipGradNorm returns the factor that clips the gradients' global L2
// norm to maxNorm: maxNorm/norm when the norm exceeds maxNorm, and 1 when
// it does not, when it is 0, or when maxNorm <= 0 disables clipping. It
// leaves the gradients unchanged; Adam.Step applies the factor as it
// reads them, which stores the products an in-place rescale would. The
// squares are summed serially, parameter by parameter in order.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var ss float64
	for _, p := range params {
		for _, g := range p.Grad {
			ss += g * g
		}
	}
	norm := math.Sqrt(ss)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return 1
	}
	return maxNorm / norm
}
