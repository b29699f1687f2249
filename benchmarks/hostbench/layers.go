package main

import (
	"math"
	"os"
	"path/filepath"
	"time"

	"hybriddem/internal/core"
	"hybriddem/internal/machine"
)

// refConfigs are the configurations the traced pass re-runs through
// the reference loops; hybrid_p2 runs the same distributed loop as
// hybrid_t2 with other team sizes and adds no layer of its own.
var refConfigs = []string{"serial", "openmp", "mpi", "mpism", "hybrid_t2"}

// driverConfigs are the configurations whose end-to-end iter_ms is set
// against the reference loop's.
var driverConfigs = []string{"serial", "openmp", "mpi", "hybrid_t2"}

// modelConfigs are the configurations re-run under a virtual platform
// to price the cost model itself.
var modelConfigs = []string{"serial", "mpi"}

// layerStats is the outcome of the traced pass of one workload.
type layerStats struct {
	tally
	Metrics   map[string]sample
	TraceFile string
	Spans     int
}

func (ls *layerStats) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over a count that is exactly zero on this workload
	}
	ls.Metrics[name] = single(unit, v)
}

// ratio is a/b, or 0 when the denominator is a count that did not
// occur (no rebuild in the window, no halo on one rank).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nsPer(d time.Duration, count int64) float64 { return ratio(float64(d), float64(count)) }

// spanBudget sizes a recorder: the reference loops open a handful of
// spans per block per step plus a few per step and per rebuild.
func spanBudget(w *workload, rc runCfg) int {
	blocks := 1
	if rc.distributed() {
		blocks = w.Bed.BPP
	}
	return (w.Iters+warmup+2)*(24+6*blocks) + 64
}

// runRef runs one configuration through its reference loop with spans
// on or off. A shared loop is returned for its final state, which feeds
// the micro-timings; distributed loops return nil.
func runRef(w *workload, name string, seed int64, epoch time.Time, on bool) (*sharedLoop, *refResult, []*recorder, error) {
	rc := configByName(name)
	cfg := w.Bed.config(rc, seed)
	recs := make([]*recorder, rc.P)
	for rank := range recs {
		recs[rank] = newRecorder(w.Name, name, rank, epoch, spanBudget(w, rc), on)
	}
	if !rc.distributed() {
		loop, res, err := runSharedRef(cfg, w.Iters, recs[0])
		return loop, res, recs, err
	}
	res, err := runDistRef(cfg, w.Iters, recs)
	return nil, res, recs, err
}

// refRuns holds the repetitions of one configuration's reference loop.
// Counts repeat exactly from one repetition to the next; times are read
// through fastest and bestSteps.
type refRuns struct {
	Results []*refResult  // per repetition
	Ranks   [][]*recorder // [rank][repetition]

	best []map[cellKey]agg // per rank, fastest over the repetitions; filled on first use
}

func (rr *refRuns) add(res *refResult, recs []*recorder) {
	rr.Results = append(rr.Results, res)
	if rr.Ranks == nil {
		rr.Ranks = make([][]*recorder, len(recs))
	}
	for rank, r := range recs {
		rr.Ranks[rank] = append(rr.Ranks[rank], r)
	}
}

func (rr *refRuns) counts() *refResult { return rr.Results[0] }

func (rr *refRuns) iterMs() float64 {
	var steps [][]float64
	for _, res := range rr.Results {
		steps = append(steps, res.StepMs)
	}
	return bestSteps(steps)
}

// cells returns one rank's spans per name and iteration, each taken
// from its fastest repetition. All repetitions must have been added.
func (rr *refRuns) cells(rank int) map[cellKey]agg {
	if rr.best == nil {
		rr.best = make([]map[cellKey]agg, len(rr.Ranks))
	}
	if rr.best[rank] == nil {
		rr.best[rank] = fastest(rr.Ranks[rank])
	}
	return rr.best[rank]
}

// rank sums cells per name over the iterations keep accepts.
func (rr *refRuns) rank(rank int, keep func(int32) bool) map[string]agg {
	return sumCells(rr.cells(rank), keep)
}

// maxOverRanks evaluates f on every rank and returns the largest value:
// a step waits for its slowest rank.
func (rr *refRuns) maxOverRanks(keep func(int32) bool, f func(map[string]agg) float64) float64 {
	best := 0.0
	for rank := range rr.Ranks {
		best = math.Max(best, f(rr.rank(rank, keep)))
	}
	return best
}

// perIteration sums one span name over the steady iterations twice:
// taking in each iteration the rank that spent least in it, and the rank
// that spent most.
func (rr *refRuns) perIteration(name string) (least, most time.Duration) {
	for k, c := range rr.cells(0) {
		if k.Name != name || !steady(k.Iter) {
			continue
		}
		lo, hi := c.Total, c.Total
		for rank := 1; rank < len(rr.Ranks); rank++ {
			t := rr.cells(rank)[k].Total
			lo, hi = min(lo, t), max(hi, t)
		}
		least += lo
		most += hi
	}
	return least, most
}

// tracePass produces the per-layer metrics of one workload. Nothing
// end-to-end is taken from it. It repeats w.TraceReps times, interleaved:
// every reference configuration through the benchmark-owned loops with
// spans on, the serial loop once more with spans off, one round of the
// real drivers, and the serial and mpi drivers under a virtual platform.
// Times are then read per step (per span name and iteration) from the
// fastest repetition, the estimator of the end-to-end pass. After that
// it times public calls in isolation where spans cannot reach and
// follows a short service loop from the client side (phase A for phaseA,
// phase B at its minimum), and writes the first repetition's spans and
// the service spans to traceFile.
func tracePass(w *workload, seed int64, phaseA time.Duration, workDir, traceFile string, logf func(string, ...any)) (*layerStats, error) {
	ls := &layerStats{Metrics: make(map[string]sample)}
	epoch := time.Now()

	refs := make(map[string]*refRuns)
	for _, name := range refConfigs {
		refs[name] = &refRuns{}
	}
	sim := newSimStats(w)
	var spansOff [][]float64
	model := make(map[string][][]float64)
	var serial *sharedLoop // the last repetition's
	for rep := 0; rep < w.TraceReps; rep++ {
		r0 := time.Now()
		for _, name := range refConfigs {
			loop, res, recs, err := runRef(w, name, seed, epoch, true)
			ls.Attempted++
			if err != nil {
				ls.fail("reference loop %s: %v", name, err)
				return ls, nil
			}
			if name == "serial" {
				serial = loop
			}
			refs[name].add(res, recs)
		}
		_, res, _, err := runRef(w, "serial", seed, epoch, false)
		if err != nil {
			ls.fail("reference loop serial with spans off: %v", err)
			return ls, nil
		}
		spansOff = append(spansOff, res.StepMs)

		sim.round(w, seed, true)
		for _, name := range modelConfigs {
			cfg := w.Bed.config(configByName(name), seed)
			cfg.Platform = machine.CompaqES40()
			run := timeRun(cfg, w.Iters, sim.stamps, false)
			ls.Attempted++
			if run.Err != nil {
				ls.fail("%s under the Compaq model: %v", name, run.Err)
				return ls, nil
			}
			model[name] = append(model[name], run.StepMs)
		}
		logf("  repetition %d: %.2fs", rep+1, time.Since(r0).Seconds())
	}
	sim.check(w)
	ls.add(sim.tally)
	for _, name := range refConfigs {
		logf("  reference %-10s %.3f ms/iter", name, refs[name].iterMs())
	}

	ls.forceCellParticle(w, refs["serial"])
	ls.sharedMemory(w, refs, serial)
	ls.messagesAndDomains(refs)
	ls.coreAndMachine(refs, sim, model)
	ls.set("trace.overhead_ratio", "ratio", ratio(refs["serial"].iterMs(), bestSteps(spansOff)))

	var all []*recorder
	for _, name := range refConfigs {
		for _, reps := range refs[name].Ranks {
			all = append(all, reps[0])
			for _, r := range reps {
				if r.Dropped > 0 {
					ls.fail("%s/%s rank %d: %d spans did not fit the buffer", r.Workload, r.Config, r.Rank, r.Dropped)
				}
			}
		}
	}
	svcSpans, err := ls.checkpointAndServer(w, seed, serial, workDir, phaseA, epoch, logf)
	if err != nil {
		return nil, err
	}
	all = append(all, svcSpans...)
	for _, r := range all {
		ls.Spans += len(r.spans)
	}
	if err := os.MkdirAll(filepath.Dir(traceFile), 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(traceFile, all); err != nil {
		return nil, err
	}
	ls.TraceFile = traceFile
	return ls, nil
}

// forceCellParticle derives the force, cell and particle metrics from
// the serial reference loop: steady-window self time over the exact
// count of the same window for what every step does, whole-run figures
// (the first build included) for what only a rebuild does — so they
// exist on a workload that never rebuilds — and shares of the steady
// step for where the time goes.
func (ls *layerStats) forceCellParticle(w *workload, rr *refRuns) {
	ref := rr.counts()
	st, whole := rr.rank(0, steady), rr.rank(0, anyIter)
	perParticle := int64(w.Bed.N) * int64(ref.SteadyIters)
	step := st["step"].Total

	ls.set("force.accumulate_ns_per_link", "ns/link", nsPer(st["force.Accumulate"].Self, ref.Steady.LinkVisits))
	ls.set("force.integrate_ns_per_particle", "ns/particle", nsPer(st["force.Integrate"].Self, ref.Steady.PosUpdates))
	ls.set("force.kinetic_ns_per_particle", "ns/particle", nsPer(st["force.KineticEnergy"].Self, perParticle))
	ls.set("force.contacts_per_link", "ratio", ratio(float64(ref.Steady.Contacts), float64(ref.Steady.LinkVisits)))
	var forceSelf time.Duration
	for name, a := range st {
		if layerOf(name) == "force" {
			forceSelf += a.Self
		}
	}
	ls.set("force.step_share", "ratio", ratio(float64(forceSelf), float64(step)))

	ls.set("cell.bin_ns_per_particle", "ns/particle", nsPer(whole["cell.Bin"].Self, ref.All.CellBinOps))
	ls.set("cell.build_ns_per_link", "ns/link", nsPer(whole["cell.BuildLinksInto"].Self, ref.LinksBuilt))
	ls.set("cell.link_yield", "ratio", ratio(float64(ref.LinksBuilt), float64(ref.All.PairChecks)))
	ls.set("cell.rebuild_ms", "ms", ratio(ms(st["rebuild"].Total), float64(st["rebuild"].N)))
	ls.set("cell.rebuild_share", "ratio", ratio(float64(st["rebuild"].Total), float64(step)))

	ls.set("particle.permute_ns_per_particle", "ns/particle", nsPer(whole["particle.Permute"].Self, ref.All.ReorderMoves))
	ls.set("particle.maxdisp_ns_per_particle", "ns/particle", nsPer(st["particle.MaxDisp2"].Self, perParticle))
	ls.set("particle.zero_ns_per_particle", "ns/particle", nsPer(st["particle.ZeroForces"].Self, perParticle))
}

// sharedMemory derives the shm metrics: team kernels from the openmp
// reference loop, lock and region counts from hybrid_t2 (threads over
// many blocks, where they matter), and the isolated fork/join, T=1
// kernel and parallel link build from micro-timings.
func (ls *layerStats) sharedMemory(w *workload, refs map[string]*refRuns, serial *sharedLoop) {
	rr := refs["openmp"]
	omp := rr.counts()
	st, whole := rr.rank(0, steady), rr.rank(0, anyIter)
	perParticle := int64(w.Bed.N) * int64(omp.SteadyIters)
	ls.set("shm.accumulate_t2_ns_per_link", "ns/link", nsPer(st["shm.Accumulate"].Self, omp.Steady.LinkVisits))
	ls.set("shm.integrate_t2_ns_per_particle", "ns/particle", nsPer(st["shm.IntegrateParallel"].Self, perParticle))
	ls.set("shm.prepare_ns_per_link", "ns/link", nsPer(whole["shm.Prepare"].Self, omp.LinksBuilt))

	hyb := refs["hybrid_t2"].counts()
	ls.set("shm.atomic_fraction", "ratio", hyb.Steady.AtomicFraction())
	ls.set("shm.regions_per_step", "count", ratio(float64(hyb.Steady.ParallelRegions), float64(hyb.SteadyIters)))

	ls.set("shm.region_us", "us", microRegion(5000))
	reps := 1 + 2000000/(len(serial.list.Links)+1) // about two million link visits per timing
	accT1, buildT2 := microTeamKernels(serial, reps)
	ls.set("shm.accumulate_t1_ns_per_link", "ns/link", accT1)
	ls.set("cell.build_t2_ns_per_link", "ns/link", buildT2)
}

// messagesAndDomains derives the mp and decomp metrics from the mpi and
// mpism reference loops (timings from the slowest rank, counts summed
// over ranks) and the message runtime's micro-timings.
func (ls *layerStats) messagesAndDomains(refs map[string]*refRuns) {
	rr := refs["mpi"]
	mpi := rr.counts()
	iters := float64(mpi.SteadyIters)
	ls.set("mp.msgs_per_step", "count", ratio(float64(mpi.Steady.MsgsSent), iters))
	ls.set("mp.bytes_per_step", "bytes", ratio(float64(mpi.Steady.BytesSent), iters))
	ls.set("mp.collectives_per_step", "count", ratio(float64(mpi.Steady.Collectives), iters*float64(len(rr.Ranks))))

	// The halo refresh and the allreduce synchronise the ranks, so in
	// every iteration the rank that arrives last pays the call's own
	// cost and the other one also waits for it: the smaller duration is
	// message cost, the difference is imbalance, which falls when the
	// slower rank gets faster.
	_, steps := rr.perIteration("step")
	refreshCost, _ := rr.perIteration("decomp.RefreshHalos")
	reduceCost, reduceAll := rr.perIteration("mp.AllreduceInPlace")
	ls.set("mp.comm_share", "ratio", ratio(float64(refreshCost+reduceCost), float64(steps)))
	ls.set("mp.coll_wait_share", "ratio", ratio(float64(reduceAll-reduceCost), float64(steps)))

	mm := microMP(5000)
	ls.set("mp.sendrecv_8b_us", "us", mm.Send8BUs)
	ls.set("mp.sendrecv_64k_us", "us", mm.Send64KUs)
	ls.set("mp.allreduce_us", "us", mm.AllreduceUs)
	ls.set("mp.barrier_us", "us", mm.BarrierUs)
	ls.set("mp.win_fence_us", "us", mm.FenceUs)

	meanUs := func(name string) func(map[string]agg) float64 {
		return func(a map[string]agg) float64 { return ratio(micros(a[name].Total), float64(a[name].N)) }
	}
	ls.set("decomp.refresh_us", "us", rr.maxOverRanks(steady, meanUs("decomp.RefreshHalos")))
	ls.set("decomp.refresh_win_us", "us", refs["mpism"].maxOverRanks(steady, meanUs("decomp.RefreshHalos")))
	var refresh time.Duration
	for rank := range rr.Ranks {
		refresh += rr.rank(rank, steady)["decomp.RefreshHalos"].Total
	}
	ls.set("decomp.refresh_ns_per_halo", "ns/halo", nsPer(refresh, int64(mpi.NHalo)*int64(mpi.SteadyIters)))
	ls.set("decomp.halo_per_core", "ratio", ratio(float64(mpi.NHalo), float64(mpi.NCore)))
	ls.set("decomp.lists_valid_us", "us", rr.maxOverRanks(steady, meanUs("decomp.ListsValid")))
	ls.set("decomp.rebuild_ms", "ms", rr.maxOverRanks(anyIter, meanUs("decomp.Rebuild"))/1000)
	ls.set("decomp.migrated_per_rebuild", "count", ratio(float64(mpi.Steady.MigratedParts), float64(mpi.SteadyRebuilds)))
}

// coreAndMachine relates the real drivers to the reference loops and to
// each other, and prices the virtual platform model: the serial and mpi
// drivers with the Compaq cost model on, over the same without.
func (ls *layerStats) coreAndMachine(refs map[string]*refRuns, sim *simStats, model map[string][][]float64) {
	iterMs := make(map[string]float64)
	for _, rc := range configs {
		iterMs[rc.Name], _ = sim.iterMs(rc.Name)
	}
	for _, rc := range configs {
		ls.set("core.setup_ms."+rc.Name, "ms", 1000*median(sim.values(rc.Name, func(r simRun) float64 { return r.SetupS })))
		ls.set("core.allocs_per_step."+rc.Name, "count", median(sim.values(rc.Name, func(r simRun) float64 { return r.AllocsPerStep })))
		ls.set("core.speedup."+rc.Name, "ratio", ratio(iterMs["serial"], iterMs[rc.Name]))
	}
	for _, name := range driverConfigs {
		ls.set("core.driver_ratio."+name, "ratio", ratio(iterMs[name], refs[name].iterMs()))
	}
	var with, without float64
	for _, name := range modelConfigs {
		with += bestSteps(model[name])
		without += iterMs[name]
	}
	ls.set("machine.model_overhead_ratio", "ratio", ratio(with, without))
}

// checkpointAndServer times the durable-chunk path on the bed's own
// state, server.Submit with and without a journal, and then follows a
// short service loop from the client side, returning each job's
// protocol phases as spans.
func (ls *layerStats) checkpointAndServer(w *workload, seed int64, serial *sharedLoop, workDir string, phaseA time.Duration, epoch time.Time, logf func(string, ...any)) ([]*recorder, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "micro-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	pos, vel := serial.state()
	ck, err := microCheckpoint(serial.cfg, &core.Result{Pos: pos, Vel: vel, Iters: w.Iters}, dir, 5)
	if err != nil {
		return nil, err
	}
	ls.set("checkpoint.from_result_ms", "ms", ck.FromResultMs)
	ls.set("checkpoint.encode_ms", "ms", ck.EncodeMs)
	ls.set("checkpoint.bytes", "bytes", ck.Bytes)
	ls.set("checkpoint.savefile_ms", "ms", ck.SaveFileMs)
	ls.set("checkpoint.sync_ms", "ms", math.Max(ck.SaveFileMs-ck.EncodeMs, 0))
	ls.set("checkpoint.load_ms", "ms", ck.LoadMs)
	ls.set("checkpoint.apply_ms", "ms", ck.ApplyMs)

	durable, queue, err := microSubmit(filepath.Join(dir, "data"), 40)
	if err != nil {
		return nil, err
	}
	memory, _, err := microSubmit("", 40)
	if err != nil {
		return nil, err
	}
	ls.set("server.submit_ms_p50", "ms", median(durable))
	ls.set("server.submit_mem_ms_p50", "ms", median(memory))
	ls.set("server.journal_ms", "ms", math.Max(median(durable)-median(memory), 0))
	ls.set("server.queue_ms_p50", "ms", median(queue))

	svc, err := benchService(w, seed, workDir, phaseA, 0, logf)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	ls.add(svc.tally)

	var jobMs []float64
	dropped := 0
	for i := range svc.Jobs {
		if t := &svc.Jobs[i]; t.Err == nil {
			jobMs = append(jobMs, t.jobMs())
		}
		if svc.Jobs[i].Dropped {
			dropped++
		}
	}
	ls.set("server.first_event_ms_p90", "ms", percentile(svc.firstEventMs(), 90))
	ls.set("server.job_ms_p50", "ms", median(jobMs))
	ls.set("server.dropped_ratio", "ratio", ratio(float64(dropped), float64(len(svc.Jobs))))
	if svc.Stats != nil {
		ls.set("server.rejected", "count", float64(svc.Stats.Rejected))
	}
	ls.set("server.alloc_kb_per_job", "kb/job", ratio(float64(svc.AllocBytesA)/1024, float64(len(svc.Jobs))))

	if err := svc.d.shutdown(); err != nil {
		return nil, err
	}
	rec, err := microRecover(svc.d.dataDir())
	if err != nil {
		return nil, err
	}
	ls.set("server.recover_ms", "ms", rec)
	return svc.spans(w.Name, epoch), nil
}
