package hybriddem_test

import (
	"math"
	"path/filepath"
	"testing"

	"hybriddem"
)

// TestPublicAPIRoundTrip drives the façade exactly as the README's
// quick start does.
func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := hybriddem.Default(3, 2000)
	cfg.Mode = hybriddem.Hybrid
	cfg.P, cfg.T = 2, 2
	cfg.Method = hybriddem.SelectedAtomic
	cfg.Platform = hybriddem.CompaqES40()
	cfg.InitVel = 0.5
	res, err := hybriddem.Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerIter <= 0 || res.NLinks == 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if math.IsNaN(res.Epot + res.Ekin) {
		t.Error("NaN energies")
	}
}

func TestPublicPlatforms(t *testing.T) {
	if len(hybriddem.Platforms()) != 3 {
		t.Error("expected three platforms")
	}
	for _, name := range []string{"Sun", "T3E", "CPQ"} {
		pf, err := hybriddem.PlatformByName(name)
		if err != nil || pf == nil {
			t.Errorf("PlatformByName(%s): %v", name, err)
		}
	}
	if hybriddem.SunHPC().MaxCPUs() != 8 {
		t.Error("Sun shape")
	}
	if hybriddem.T3E().CPUsPerNode != 1 {
		t.Error("T3E shape")
	}
	if hybriddem.CompaqES40().Nodes != 5 {
		t.Error("CPQ shape")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if len(hybriddem.Experiments()) < 14 {
		t.Errorf("only %d experiments registered", len(hybriddem.Experiments()))
	}
	e, err := hybriddem.ExperimentByID("T1")
	if err != nil || e.ID != "T1" {
		t.Fatalf("ExperimentByID: %v", err)
	}
	rep := e.Run(hybriddem.ExperimentOptions{N: 5000, Iters: 1, Warmup: 1, Seed: 1})
	if len(rep.Rows) != 12 {
		t.Errorf("T1 produced %d rows", len(rep.Rows))
	}
}

func TestMeasureCheckpointExportThroughFacade(t *testing.T) {
	dir := t.TempDir()
	cfg := hybriddem.Default(2, 1500)
	cfg.Seed = 3
	cfg.CollectState = true
	res, err := hybriddem.Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}

	obs, err := hybriddem.Measure(&cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 2-D density is ~0.785 area fraction.
	if math.Abs(obs.PackingFraction-0.785) > 0.02 {
		t.Errorf("packing fraction %g", obs.PackingFraction)
	}
	if obs.Coordination <= 0 || obs.Pressure <= 0 {
		t.Errorf("observables: %+v", obs)
	}
	if len(obs.RDF) != len(obs.RDFRadii) || len(obs.RDF) == 0 {
		t.Error("rdf shape")
	}

	ck := filepath.Join(dir, "s.ck")
	if err := hybriddem.SaveCheckpoint(ck, &cfg, res, 10); err != nil {
		t.Fatal(err)
	}
	resume := hybriddem.Default(2, 1500)
	resume.Seed = 3
	if _, err := hybriddem.LoadCheckpoint(ck, &resume); err != nil {
		t.Fatal(err)
	}
	if resume.Init == nil {
		t.Error("checkpoint did not install an initial state")
	}

	for _, name := range []string{"s.vtk", "s.xyz", "s.csv"} {
		if err := hybriddem.ExportState(filepath.Join(dir, name), &cfg, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestVerify is the façade's verification sub-tree: the differential
// conformance matrix and the generated scenario families exercised
// through the public API, the same machinery cmd/demrun exposes behind
// -verify.
func TestVerify(t *testing.T) {
	t.Run("conformance", func(t *testing.T) {
		cfg, err := hybriddem.Scenario(hybriddem.ScenarioUniform, 2, 220, 17)
		if err != nil {
			t.Fatal(err)
		}
		c, err := hybriddem.RunConformance(cfg, 20, 0)
		if err != nil {
			t.Fatal(err)
		}
		if failed := c.Failed(); len(failed) > 0 {
			t.Fatalf("conformance failed:\n%s", c)
		}
	})
	t.Run("scenarios", func(t *testing.T) {
		kinds := []hybriddem.ScenarioKind{
			hybriddem.ScenarioUniform, hybriddem.ScenarioClustered,
			hybriddem.ScenarioBondedGrains, hybriddem.ScenarioDegenerateGrid,
			hybriddem.ScenarioNearBoundary,
		}
		for _, k := range kinds {
			cfg, err := hybriddem.Scenario(k, 2, 80, 5)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if _, err := hybriddem.Run(cfg, 3); err != nil {
				t.Errorf("%v: %v", k, err)
			}
		}
	})
	t.Run("divergence-reporting", func(t *testing.T) {
		cfg, err := hybriddem.Scenario(hybriddem.ScenarioUniform, 2, 100, 6)
		if err != nil {
			t.Fatal(err)
		}
		// An absurdly tight tolerance must flag the threaded variants
		// (summation order differs) and attach a localization.
		c, err := hybriddem.RunConformance(cfg, 10, 1e-300)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.Failed() {
			if r.Err == nil && r.Div == nil {
				t.Errorf("%s: failed without a divergence record", r.Name)
			}
		}
	})
}

func TestModesAgreeThroughFacade(t *testing.T) {
	run := func(mode hybriddem.Mode, p, t_ int) *hybriddem.Result {
		cfg := hybriddem.Default(2, 400)
		cfg.Mode = mode
		cfg.P, cfg.T = p, t_
		cfg.InitVel = 1
		cfg.Seed = 9
		cfg.CollectState = true
		res, err := hybriddem.Run(cfg, 50)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(hybriddem.Serial, 1, 1)
	mpi := run(hybriddem.MPI, 4, 1)
	cfg := hybriddem.Default(2, 400)
	box := cfg.Box()
	maxd := 0.0
	for i := range serial.Pos {
		if d := box.Dist2(serial.Pos[i], mpi.Pos[i]); d > maxd {
			maxd = d
		}
	}
	if math.Sqrt(maxd) > 1e-7 {
		t.Errorf("serial and MPI trajectories diverge through the façade: %g", math.Sqrt(maxd))
	}
}
