package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/mp"
	"hybriddem/internal/server"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// The micro-timings below call one public function of one layer in a
// tight loop and report the mean: they exist where a quantity cannot be
// read off the reference loops' spans — a T=1 team kernel no
// configuration runs, message latencies buried in the halo refresh, a
// checkpoint's encode and disk shares. Where they need a particle
// system they use the workload's own state, never a synthetic one.

type emptyBody struct{}

func (emptyBody) RunThread(*shm.Thread) {}

// microRegion times an empty parallel region on a two-thread team: the
// fork/join a threaded configuration pays per region entered.
func microRegion(n int) (us float64) {
	tm := shm.NewTeam(2, shm.Costs{})
	defer tm.Close()
	for i := 0; i < n/10+1; i++ {
		tm.RunRegion(emptyBody{})
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tm.RunRegion(emptyBody{})
	}
	return micros(time.Since(t0)) / float64(n)
}

// microTeamKernels times, on the final state of the serial reference
// loop, the selected-atomic team kernel at T=1 (no update is ever
// locked, so its distance from the serial kernel's ns/link is kernel
// and dispatch, not locks) and the thread-parallel link build at T=2.
func microTeamKernels(s *sharedLoop, reps int) (accT1NsPerLink, buildT2NsPerLink float64) {
	cfg := &s.cfg
	links := s.list.Links
	if len(links) == 0 {
		return 0, 0
	}
	t1 := shm.NewTeam(1, shm.Costs{})
	defer t1.Close()
	upd := shm.NewUpdater(shm.SelectedAtomic)
	upd.Prepare(links, s.ps.Len(), cfg.N, 1)
	s.ps.ZeroForces()
	upd.Accumulate(t1, cfg.Spring, s.ps, links, len(links), cfg.N, s.box)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		upd.Accumulate(t1, cfg.Spring, s.ps, links, len(links), cfg.N, s.box)
	}
	accT1NsPerLink = float64(time.Since(t0)) / float64(reps) / float64(len(links))

	t2 := shm.NewTeam(2, shm.Costs{})
	defer t2.Close()
	pool := shm.TeamPool{Team: t2}
	var tc trace.Counters
	rc := cfg.RC()
	s.grid.BinParallel(&s.ps.Pos, cfg.N, pool, &tc)
	var built int
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		built += len(s.grid.BuildLinksParallel(&s.ps.Pos, cfg.N, cfg.N, rc*rc, s.box, pool, &tc).Links)
	}
	buildT2NsPerLink = float64(time.Since(t0)) / float64(built)
	return accT1NsPerLink, buildT2NsPerLink
}

// mpMicro holds the message-runtime timings, all on two ranks over the
// free network: the one-way latency of a small and a large message
// (the α and α+βn of a latency/bandwidth model of this runtime), and
// the mean cost of an allreduce, a barrier and a window fence.
type mpMicro struct {
	Send8BUs, Send64KUs, AllreduceUs, BarrierUs, FenceUs float64
}

func microMP(n int) mpMicro {
	var m mpMicro
	pingPong := func(c *mp.Comm, words, n int) float64 {
		buf := make([]float64, words)
		peer := 1 - c.Rank()
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				c.Send(peer, 1, buf, nil)
				f, ids := c.Recv(peer, 1)
				c.FreeBuffers(f, ids)
			} else {
				f, ids := c.Recv(peer, 1)
				c.FreeBuffers(f, ids)
				c.Send(peer, 1, buf, nil)
			}
		}
		return micros(time.Since(t0)) / float64(2*n)
	}
	mean := func(c *mp.Comm, n int, op func()) float64 {
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return micros(time.Since(t0)) / float64(n)
	}
	mp.Run(2, mp.ZeroNetwork{}, func(c *mp.Comm) {
		pingPong(c, 1, n/10+1)
		s8 := pingPong(c, 1, n)
		s64 := pingPong(c, 8192, n/10+1)
		var v [2]float64
		ar := mean(c, n, func() { c.AllreduceInPlace(v[:], mp.Sum) })
		br := mean(c, n, c.Barrier)
		win := mp.NewWin(c.SplitNode(), mp.WinCosts{})
		win.Reserve(64)
		fe := mean(c, n, win.Fence)
		if c.Rank() == 0 {
			m = mpMicro{Send8BUs: s8, Send64KUs: s64, AllreduceUs: ar, BarrierUs: br, FenceUs: fe}
		}
	})
	return m
}

// ckMicro holds the checkpoint timings, medians over a few rounds.
type ckMicro struct {
	FromResultMs, EncodeMs, SaveFileMs, LoadMs, ApplyMs float64
	Bytes                                               float64
}

// microCheckpoint times the durable-chunk path piece by piece on a
// collected state of the workload's bed: snapshot from a result, encode
// to memory, the crash-safe file write (whose excess over the encode is
// the disk's share: fsync, rename, directory sync), load and apply.
func microCheckpoint(cfg core.Config, res *core.Result, dir string, rounds int) (ckMicro, error) {
	var fromRes, encode, save, load, apply []float64
	var size int
	path := filepath.Join(dir, "micro.ck")
	defer os.Remove(path)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		snap, err := checkpoint.FromResult(&cfg, res, res.Iters)
		if err != nil {
			return ckMicro{}, err
		}
		fromRes = append(fromRes, ms(time.Since(t0)))

		var buf bytes.Buffer
		t0 = time.Now()
		if err := checkpoint.Save(&buf, snap); err != nil {
			return ckMicro{}, err
		}
		encode = append(encode, ms(time.Since(t0)))
		size = buf.Len()

		t0 = time.Now()
		if err := checkpoint.SaveFile(path, snap); err != nil {
			return ckMicro{}, err
		}
		save = append(save, ms(time.Since(t0)))

		t0 = time.Now()
		back, err := checkpoint.LoadFile(path)
		if err != nil {
			return ckMicro{}, err
		}
		load = append(load, ms(time.Since(t0)))

		target := cfg
		t0 = time.Now()
		if err := back.Apply(&target); err != nil {
			return ckMicro{}, err
		}
		apply = append(apply, ms(time.Since(t0)))
	}
	return ckMicro{
		FromResultMs: median(fromRes), EncodeMs: median(encode), SaveFileMs: median(save),
		LoadMs: median(load), ApplyMs: median(apply), Bytes: float64(size),
	}, nil
}

// microSubmit times server.Submit through the direct API, on a daemon
// with a data dir (journal append and fsync before the id is
// acknowledged) or without one, and the queue wait behind it: from the
// acknowledgement until a worker has picked the job up. The jobs are
// tiny and each is waited for, so a submit never competes with a
// simulation. Progress is read from the stats counters, which are
// atomics; polling Status while a job starts races with the worker
// inside the server package (Job.itersStart).
func microSubmit(dataDir string, n int) (submitMs, queueMs []float64, err error) {
	srv, err := server.New(server.Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Shutdown()
	spec := &server.JobSpec{D: 2, N: 400, Iters: 1}
	progress := func() (running int, finished int64) {
		st := srv.ServerStats().Stats
		return st.Running, st.Completed + st.Failed + st.Canceled
	}
	for i := 0; i < n; i++ {
		_, before := progress()
		t0 := time.Now()
		resp := srv.Submit(spec)
		t1 := time.Now()
		if !resp.OK {
			return nil, nil, fmt.Errorf("submit: %s", resp.Error)
		}
		// A worker is idle, so the job leaves the queue within tens of
		// microseconds: spin for that, then wait out the rest of its
		// life at leisure so the worker has the CPU.
		for running, finished := progress(); running == 0 && finished == before; running, finished = progress() {
		}
		t2 := time.Now()
		for _, finished := progress(); finished == before; _, finished = progress() {
			time.Sleep(200 * time.Microsecond)
		}
		submitMs = append(submitMs, ms(t1.Sub(t0)))
		queueMs = append(queueMs, ms(t2.Sub(t1)))
	}
	return submitMs, queueMs, nil
}

// microRecover times a daemon start on a data dir a previous daemon
// left behind: journal replay, job table rebuild and compaction.
func microRecover(dataDir string) (float64, error) {
	t0 := time.Now()
	srv, err := server.New(server.Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		return 0, err
	}
	el := ms(time.Since(t0))
	srv.Shutdown()
	return el, nil
}
