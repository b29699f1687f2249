package verify

import (
	"testing"

	"hybriddem/internal/geom"
)

// nudgedPair captures a scenario and a copy of its trajectory in which
// one particle, from step 10 on, sits 1e-9 further along x and moves
// 1e-9 faster: a drift a loose bound must accept and a tight one must
// not.
func nudgedPair(t *testing.T) (*Trajectory, *Trajectory, geom.Box) {
	t.Helper()
	cfg, err := Scenario(Uniform, 2, 48, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dt = 1e-3
	ref, err := Capture(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	got := &Trajectory{Box: ref.Box, Res: ref.Res, Steps: make([]Step, len(ref.Steps))}
	for s, st := range ref.Steps {
		got.Steps[s] = Step{Pos: append([]geom.Vec(nil), st.Pos...), Vel: append([]geom.Vec(nil), st.Vel...)}
		if s >= 10 {
			got.Steps[s].Pos[5][0] += 1e-9
			got.Steps[s].Vel[5][0] += 1e-9
		}
	}
	return ref, got, cfg.Box()
}

// TestCompareApproxRejectsTightBound: a bound far below the drift must
// fail, at the step and particle where it starts, while one above it
// passes — the comparator does detect the difference it is asked to.
func TestCompareApproxRejectsTightBound(t *testing.T) {
	ref, got, box := nudgedPair(t)
	tight := ApproxTol{Pos: FieldTol{Abs: 1e-14}, Vel: FieldTol{Abs: 1e-14}}
	dv, _ := CompareApprox(box, ref, got, tight)
	if dv == nil {
		t.Fatal("1e-14 absolute bound accepted a 1e-9 drift")
	}
	if dv.Step != 10 || dv.Particle != 5 || (dv.Field != "pos" && dv.Field != "vel") {
		t.Fatalf("divergence at step %d, particle %d, field %q; want step 10, particle 5", dv.Step, dv.Particle, dv.Field)
	}
	loose := ApproxTol{Pos: FieldTol{Abs: 1e-8}, Vel: FieldTol{Abs: 1e-8}}
	if dv, max := CompareApprox(box, ref, got, loose); dv != nil || max < 1e-9/2 {
		t.Fatalf("1e-8 bound: %v (max dev %g)", dv, max)
	}
}

// TestCompareApproxIdenticalPasses: a trajectory compared against
// itself passes any bound, including all-zero.
func TestCompareApproxIdenticalPasses(t *testing.T) {
	ref, _, box := nudgedPair(t)
	if dv, max := CompareApprox(box, ref, ref, ApproxTol{}); dv != nil || max != 0 {
		t.Fatalf("self-comparison diverged: %v (max %g)", dv, max)
	}
}
