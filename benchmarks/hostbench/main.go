// Command hostbench is this repository's benchmark: it times the
// engine and its daemon with the host clock, from outside, and relates
// what it sees to the layers below. See ../README.md for the metric
// definitions and ../../BENCHMARK.json for their bounds.
//
//	hostbench                          all four workloads, end-to-end metrics
//	hostbench -workload bed3d -seed 7  one workload on other generated inputs
//	hostbench -trace 1                 the traced pass: per-layer metrics and a trace file
//	hostbench -trace both -out r.json  both passes, results kept for -compare
//	hostbench -compare a.json b.json   two result files against the bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run: uniform3d | bed3d | fine2d | service | all")
		seed      = fs.Int64("seed", 1, "seed of the generated inputs (particle placement, job specs)")
		seconds   = fs.Float64("seconds", 24, "measuring time of one workload's end-to-end pass")
		tracing   = fs.String("trace", "0", "0: end-to-end pass; 1: traced pass (per-layer metrics, trace file); both")
		traceFile = fs.String("trace-file", "", "where the traced pass writes its trace-event JSON (default <work>/trace-<workload>.json)")
		out       = fs.String("out", "", "write the results, environment block included, to this JSON file")
		work      = fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for sockets, journals and checkpoints")
		smoke     = fs.Bool("smoke", false, "tiny sizes that only exercise the code paths (for the test suite)")
		compare   = fs.Bool("compare", false, "compare two result files: hostbench -compare A.json B.json")
		specPath  = fs.String("spec", "BENCHMARK.json", "the benchmark declaration -compare takes bounds from")
		quiet     = fs.Bool("q", false, "no progress lines on standard error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hostbench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, *specPath, fs.Arg(0), fs.Arg(1))
	}
	if *tracing != "0" && *tracing != "1" && *tracing != "both" {
		fmt.Fprintf(stderr, "hostbench: -trace %q (valid: 0 | 1 | both)\n", *tracing)
		return 2
	}
	ws := workloads(*smoke)
	if *name != "all" {
		w, err := workloadByName(ws, *name)
		if err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	env := readEnv()
	if env.NProc < 2 {
		// Every configuration but serial needs two CPUs; on one, the
		// wall clock would measure time slicing, not the program.
		fmt.Fprintf(stdout, "hostbench: nproc=%d: %d workloads x %d configurations declared, none timed (two CPUs needed for wall-clock scaling)\n",
			env.NProc, len(ws), len(configs))
		return 3
	}
	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format+"\n", a...)
		}
	}

	rf := &resultFile{Schema: schema, Env: env, Seed: *seed, Seconds: *seconds, Smoke: *smoke}
	fmt.Fprintf(stdout, "hostbench: nproc=%d GOMAXPROCS=%d cpu=%q caches=%v %s commit=%s seed=%d\n",
		env.NProc, env.GOMAXPROCS, env.CPUModel, env.Caches, env.GoVersion, env.Commit, *seed)
	status := 0
	for _, w := range ws {
		t0 := time.Now()
		res := &workloadResult{Name: w.Name}
		if *tracing != "1" {
			logf("%s: end-to-end pass", w.Name)
			if err := runEndToEnd(w, res, *seed, *seconds, *work, logf); err != nil {
				fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.Name, err)
				return 1
			}
		}
		if *tracing != "0" {
			logf("%s: traced pass", w.Name)
			tf := *traceFile
			if tf == "" {
				tf = filepath.Join(*work, "trace-"+w.Name+".json")
			}
			phaseA := time.Duration(min(3, 0.15**seconds) * float64(time.Second))
			if *smoke {
				phaseA = time.Second
			}
			ls, err := tracePass(w, *seed, phaseA, *work, tf, logf)
			if err != nil {
				fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.Name, err)
				return 1
			}
			res.PerLayer = ls.Metrics
			res.add(ls.tally)
			res.TraceFile = ls.TraceFile
			if ls.TraceFile != "" {
				logf("%s: %d spans written to %s", w.Name, ls.Spans, ls.TraceFile)
			}
		}
		res.Correct = res.Failed == 0
		res.WallS = time.Since(t0).Seconds()
		res.print(stdout)
		if !res.Correct {
			status = 1
		}
		rf.Workloads = append(rf.Workloads, res)
		runtime.GC()
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
	}
	if len(rf.Workloads) == 1 {
		// One workload, one pass: end with the line the acceptance
		// driver parses. A failed check is reported inside it.
		res := rf.Workloads[0]
		metrics := res.EndToEnd
		if *tracing == "1" {
			metrics = res.PerLayer
		}
		line, err := res.contract(metrics)
		if err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	return status
}

// runEndToEnd measures the ten end-to-end metrics of one workload on
// its bed: the six configurations through core.Run, then the service
// loop through an in-process demd.
func runEndToEnd(w *workload, res *workloadResult, seed int64, seconds float64, workDir string, logf func(string, ...any)) error {
	start := time.Now()
	budget := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }

	sim := benchSim(w, seed, budget(w.SimShare), logf)
	phaseA := budget(w.JobShare)
	phaseB := budget(1) - time.Since(start) - phaseA
	svc, err := benchService(w, seed, workDir, phaseA, phaseB, logf)
	if err != nil {
		return err
	}
	if err := svc.stop(); err != nil {
		return err
	}

	res.add(sim.tally)
	res.add(svc.tally)

	res.EndToEnd = make(map[string]sample)
	setup := median(svc.StartS)
	for _, rc := range configs {
		best, perRep := sim.iterMs(rc.Name)
		res.EndToEnd[rc.Name+".iter_ms"] = estimate("ms", best, perRep)
		setup += median(sim.values(rc.Name, func(r simRun) float64 { return r.SetupS }))
	}
	// Set-up is what a run costs besides its steady iterations: per
	// configuration the median of wall(core.Run) minus the steady
	// window scaled to all iterations (placement, first list build,
	// warm-up, rank and team spin-up, teardown), summed, plus a daemon's
	// start until it answers its first request.
	res.EndToEnd["setup_s"] = single("s", setup)
	res.EndToEnd["jobs_per_s"] = single("1/s", svc.jobsPerS())
	res.EndToEnd["first_event_ms_p50"] = summarise("ms", svc.firstEventMs())
	best, perPair := svc.chunkMs(w.boundaries())
	res.EndToEnd["chunk_ms"] = estimate("ms", best, perPair)

	runs := sim.Runs["serial"]
	res.Counts = map[string]float64{
		"reps": float64(len(runs)), "iters": float64(w.Iters),
		"jobs": float64(len(svc.Jobs)), "pairs": float64(len(svc.Chunked)),
		"chunk_boundaries": float64(w.boundaries()),
	}
	for _, rc := range configs {
		if r := sim.Runs[rc.Name]; len(r) > 0 && r[0].Err == nil {
			res.Counts[rc.Name+".rebuilds"] = float64(r[0].Res.Rebuilds)
			res.Counts[rc.Name+".links"] = float64(r[0].Res.NLinks)
		}
	}
	return nil
}
