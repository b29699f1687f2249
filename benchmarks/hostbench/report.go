package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// envInfo is the environment block of a result file: host-clock numbers
// mean nothing without the machine and toolchain they were taken on.
type envInfo struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"` // cpu0's, e.g. "L2 Unified": "4096K"
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Commit     string            `json:"commit"`
}

// readEnv gathers the environment block. CPU model and cache sizes come
// from /proc and /sys where they exist; the commit is the VCS stamp the
// go tool embeds when it builds inside a repository ("unknown" in a
// bare checkout).
func readEnv() envInfo {
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", Caches: map[string]string{},
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		read := func(name string) string {
			b, _ := os.ReadFile(dir + name)
			return strings.TrimSpace(string(b))
		}
		if size := read("size"); size != "" {
			env.Caches["L"+read("level")+" "+read("type")] = size
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name    string `json:"name"`
	Correct bool   `json:"correct"`
	tally

	EndToEnd map[string]sample  `json:"end_to_end,omitempty"`
	PerLayer map[string]sample  `json:"per_layer,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"` // sizes that explain the numbers: repetitions, rebuilds, links, jobs

	TraceFile string  `json:"trace_file,omitempty"`
	WallS     float64 `json:"wall_s"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema    string            `json:"schema"`
	Env       envInfo           `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

const schema = "hostbench/1"

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, schema)
	}
	return &rf, nil
}

func (rf *resultFile) workload(name string) *workloadResult {
	for _, w := range rf.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedNames(m map[string]sample) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics prints one line per metric: name, median, unit, and for
// repeated measurements the extremes and the sample count.
func printMetrics(w io.Writer, workload string, m map[string]sample) {
	for _, name := range sortedNames(m) {
		s := m[name]
		fmt.Fprintf(w, "%-10s %-34s %14.6g %-12s", workload, name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", s.Min, s.Max, s.N)
		}
		fmt.Fprintln(w)
	}
}

func (r *workloadResult) print(w io.Writer) {
	printMetrics(w, r.Name, r.EndToEnd)
	printMetrics(w, r.Name, r.PerLayer)
	fmt.Fprintf(w, "%-10s ops_attempted %d ops_failed %d correct %v (%.1fs)\n", r.Name, r.Attempted, r.Failed, r.Correct, r.WallS)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-10s FAILED: %s\n", r.Name, e)
	}
}

// contractLine is the last line of standard output when one workload
// runs: the form the acceptance driver parses.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadResult) contract(m map[string]sample) ([]byte, error) {
	line := contractLine{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for name, s := range m {
		v := s.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, line.Correct = 0, false // JSON has no NaN; a metric without a value is a failed run
		}
		line.Metrics[name] = contractMetric{Value: v, Unit: s.Unit}
	}
	return json.Marshal(line)
}

// benchmarkSpec is the part of BENCHMARK.json this program reads: the
// declared metrics with their directions and regression bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}
