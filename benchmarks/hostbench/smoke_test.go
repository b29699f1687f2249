package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const specFile = "../../BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func needTwoCPUs(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("hostbench refuses to time anything on fewer than two CPUs")
	}
}

// Both passes of all four workloads at smoke size: everything
// BENCHMARK.json declares is emitted, with the declared unit; the
// result file parses; every trace file loads and its spans hang
// together.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	needTwoCPUs(t)
	spec, err := readBenchmarkSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seconds", "0", "-trace", "both", "-work", dir, "-out", out, "-q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rf, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Env.NProc < 2 || rf.Env.GoVersion == "" || rf.Env.Commit == "" {
		t.Errorf("environment block incomplete: %+v", rf.Env)
	}
	if len(spec.Workloads) != len(rf.Workloads) {
		t.Fatalf("%d workloads declared, %d run", len(spec.Workloads), len(rf.Workloads))
	}
	for _, decl := range spec.Workloads {
		res := rf.workload(decl.Name)
		if res == nil {
			t.Errorf("workload %s is declared but did not run", decl.Name)
			continue
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", decl.Name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		check := func(kind string, declared []metricSpec, got map[string]sample) {
			for _, m := range declared {
				s, ok := got[m.Name]
				if !ok {
					t.Errorf("%s: %s metric %s is declared but not emitted", decl.Name, kind, m.Name)
					continue
				}
				if s.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", decl.Name, m.Name, s.Unit, m.Unit)
				}
				if kind == "end-to-end" && !(s.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v", decl.Name, m.Name, s.Value)
				}
			}
			if len(got) != len(declared) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", decl.Name, len(got), kind, len(declared))
			}
			for name, s := range got {
				if !metricName.MatchString(name) || !unitName.MatchString(s.Unit) {
					t.Errorf("%s: metric %q with unit %q does not fit the naming rules", decl.Name, name, s.Unit)
				}
			}
		}
		check("end-to-end", spec.EndToEnd, res.EndToEnd)
		check("per-layer", spec.PerLayer, res.PerLayer)
		if res.TraceFile == "" {
			t.Errorf("%s: no trace file", decl.Name)
		} else if spans := checkTraceFile(t, res.TraceFile); spans < 100 {
			t.Errorf("%s: only %d spans in %s", decl.Name, spans, res.TraceFile)
		}
	}
}

// One workload, one pass: the last line of standard output is the
// object the acceptance driver parses, with exactly its four keys.
func TestContractLine(t *testing.T) {
	needTwoCPUs(t)
	spec, err := readBenchmarkSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for trace, declared := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "fine2d", "--seed", "3", "--seconds", "0", "--trace", trace, "-smoke", "-work", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit code %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("-trace %s: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("-trace %s: last line has %d keys, want correct, attempted, failed, metrics", trace, len(line))
		}
		var parsed contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
			t.Errorf("-trace %s: %+v", trace, parsed)
		}
		if len(parsed.Metrics) != len(declared) {
			t.Errorf("-trace %s: %d metrics on the line, %d declared", trace, len(parsed.Metrics), len(declared))
		}
		for _, m := range declared {
			if got, ok := parsed.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("-trace %s: metric %s: %+v, declared unit %q", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, serial, jobs float64, samples []float64) string {
		path := filepath.Join(dir, name)
		rf := &resultFile{Schema: schema, Seed: 1, Workloads: []*workloadResult{{
			Name: "fine2d", Correct: true,
			EndToEnd: map[string]sample{
				"serial.iter_ms": estimate("ms", serial, samples),
				"jobs_per_s":     single("1/s", jobs),
			},
		}}}
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steadyReps := []float64{2.0, 2.01, 2.02, 2.0}
	base := write("a.json", 2.0, 10, steadyReps)
	for _, c := range []struct {
		name    string
		path    string
		code    int
		verdict string
	}{
		{"same", write("same.json", 2.04, 9.8, steadyReps), 0, "ok"},
		{"slower", write("slower.json", 2.6, 10, steadyReps), 1, "BREACH"},
		{"fewer jobs", write("fewer.json", 2.0, 7, steadyReps), 1, "BREACH"},
		{"more jobs is better", write("more.json", 2.0, 14, steadyReps), 0, "ok"},
		{"noisy", write("noisy.json", 2.05, 10, []float64{2.0, 2.9, 2.1, 3.4}), 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, specFile, base, c.path); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q row\n%s", c.name, c.verdict, out.String())
		}
	}
	var out bytes.Buffer
	if code := compareFiles(&out, specFile, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("a missing file gave exit code %d", code)
	}
}
