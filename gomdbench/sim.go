package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gomd/internal/atom"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/harness"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

// runCtx is what every workload runner gets: the inputs come only from
// seed; dir is scratch space inside the checkout, removed after the run.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	tr      *tracer
	dir     string
}

// subSeed derives an independent nonzero seed for one input of the run
// (splitmix64), so the workloads never see the raw argument.
func subSeed(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// built is a ready-to-step engine and what building it cost.
type built struct {
	eng           engine
	build, engNew time.Duration // workload.Build; engine construction (and priming)
}

// simWorkload describes one of the three engine workloads. The shared
// runner (runSim) does the timed phase, the cold-start jobs, the
// restores, the per-layer counters and the kernel timings; the hooks
// add what is specific to the workload.
type simWorkload struct {
	workers   int
	ckptEvery int
	rounds    int // see runSim
	jobSteps  int // length of a cold-start job
	warmup    int // steps run before the timed phase
	stepLayer string

	// newEngine builds and readies an engine in its own directory.
	newEngine func(c *runCtx, dir string, traced bool, parent int, job string) (built, error)
	// primed runs on the timed engine before its first step.
	primed func(c *runCtx, r *report, e engine) error
	// started runs after the warm-up, just before the timed phase, and
	// says how to restore the timed engine's newest checkpoint
	// generation.
	started func(c *runCtx, r *report, e engine, dir string) (*restorer, error)
	// finished runs after the timed phase, before the kernel timings
	// (which overwrite forces).
	finished func(c *runCtx, r *report, e engine, dir string) error
}

// runSim splits a run's measurement into w.rounds rounds. Each round
// runs 1/rounds of the timed phase, one cold-start job and one restore,
// so every metric's samples spread over the whole run and see the same
// mix of host load.
func runSim(c *runCtx, w simWorkload) (*report, error) {
	r := newReport()
	root := c.tr.begin(true, "bench.run", 0, -1, "")
	defer c.tr.end(root)

	dir := filepath.Join(c.dir, "timed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := w.newEngine(c, dir, true, root, "timed")
	if err != nil {
		return nil, err
	}
	e := b.eng
	defer e.close()
	if err := w.primed(c, r, e); err != nil {
		return nil, err
	}
	for i := 0; i < w.warmup; i++ {
		if err := e.step(); err != nil {
			return nil, err
		}
	}
	rs, err := w.started(c, r, e, dir)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	var steps timedSteps
	var jobs jobStats
	before := takeSnapshot(e)
	phase := c.tr.begin(true, "bench.timed", root, -1, "")
	for i := 0; i < w.rounds; i++ {
		if err := steps.runFor(c, e, w, phase, c.seconds/time.Duration(w.rounds)); err != nil {
			return nil, err
		}
		if err := jobs.run(c, w, phase, i); err != nil {
			return nil, err
		}
		if err := rs.sample(c, phase); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	c.tr.end(phase)
	after := takeSnapshot(e)

	all := steps.all()
	r.attempted += all.count() + jobs.steps
	if c.traced {
		steps.setOverhead(r)
	}
	r.setStepMetrics(&all)
	ps := c.tr.begin(true, "par.stats", root, -1, "")
	r.setLayerCounters(before, after, w.workers)
	c.tr.end(ps)
	if w.ckptEvery > 0 {
		r.set("ckpt.gen_ms", median(all[ckptStep])-median(all[rebuildStep]), len(all[ckptStep]))
	} else {
		r.set("ckpt.gen_ms", 0, 0)
	}
	jobs.report(c, r, w)
	if err := rs.report(r); err != nil {
		return nil, err
	}

	if err := w.finished(c, r, e, dir); err != nil {
		return nil, err
	}
	if err := kernelTimings(c, r, e, root); err != nil {
		return nil, err
	}
	setNoServe(r)
	r.set("max_rss_mb", maxRSSMB(), 1)
	return r, nil
}

// traceBlock is the number of consecutive steps (or jobs, for
// serve-poisson) traced or untraced together in a traced run.
const traceBlock = 10

// timedSteps accumulates the timed steps of a run. In a traced run,
// blocks of traceBlock steps alternate between untraced and traced.
type timedSteps struct {
	untraced, traced stepLog
	n                int
}

// step runs one step of e, timing and classifying it.
func (p *timedSteps) step(c *runCtx, e engine, ckptEvery int, layer string, parent int, job string) error {
	on := c.traced && (p.n/traceBlock)%2 == 1
	p.n++
	b0 := e.sims()[0].Counters.NeighBuilds
	sp := c.tr.begin(on, layer+".step", parent, e.stepNo(), job)
	t0 := time.Now()
	err := e.step()
	d := time.Since(t0)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	class := classify(e.stepNo(), ckptEvery, b0, e.sims()[0].Counters.NeighBuilds)
	if class == ckptStep {
		c.tr.rename(sp, "ckpt.step")
	}
	if on {
		p.traced.add(class, d)
	} else {
		p.untraced.add(class, d)
	}
	return nil
}

// runFor steps e for d.
func (p *timedSteps) runFor(c *runCtx, e engine, w simWorkload, parent int, d time.Duration) error {
	start := time.Now()
	for time.Since(start) < d {
		if err := p.step(c, e, w.ckptEvery, w.stepLayer, parent, ""); err != nil {
			return err
		}
	}
	return nil
}

// all is every timed step, traced or not.
func (p *timedSteps) all() stepLog {
	var l stepLog
	l.merge(&p.untraced)
	l.merge(&p.traced)
	return l
}

// setOverhead records the tracing overhead on throughput. Traced and
// untraced blocks interleave, so both see the same trajectory and host
// load.
func (p *timedSteps) setOverhead(r *report) {
	all := p.all()
	r.set("trace.overhead_ts_per_s",
		tsPerSMix(&p.traced, &all)-tsPerSMix(&p.untraced, &all), p.traced.count())
}

// jobStats accumulates the cold-start jobs: short runs of the
// workload's input from nothing, as a user submits them one after
// another (a closed loop): build the input, construct the engine, run
// jobSteps steps, read the thermo. They give setup_s, the job latency
// metrics and the set-up layer metrics, and every job must end in the
// same state.
type jobStats struct {
	setup, first, total, builds, news []float64
	tracedTotal, untracedTotal        []float64
	steps                             int
	ref                               core.Thermo
	mismatch                          error
}

func (s *jobStats) run(c *runCtx, w simWorkload, parent, j int) error {
	on := c.traced && j%2 == 1
	id := fmt.Sprintf("job-%d", j)
	js := c.tr.begin(on, "bench.job", parent, -1, id)
	defer c.tr.end(js)
	dir := filepath.Join(c.dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	b, err := w.newEngine(c, dir, on, js, id)
	if err != nil {
		return err
	}
	setupD := time.Since(start)
	var firstD time.Duration
	for k := 0; k < w.jobSteps; k++ {
		sp := c.tr.begin(on, w.stepLayer+".step", js, b.eng.stepNo(), id)
		err := b.eng.step()
		c.tr.end(sp)
		if err != nil {
			b.eng.close()
			return err
		}
		if k == 0 {
			firstD = time.Since(start)
		}
	}
	th, err := b.eng.thermo()
	totalD := time.Since(start)
	b.eng.close()
	if err != nil {
		return err
	}
	s.steps += w.jobSteps
	if j == 0 {
		s.ref = th
	} else if err := checkSameThermo(s.ref, th); err != nil && s.mismatch == nil {
		s.mismatch = fmt.Errorf("%s: %w", id, err)
	}
	s.setup = append(s.setup, setupD.Seconds())
	s.first = append(s.first, ms(firstD))
	s.total = append(s.total, ms(totalD))
	s.builds = append(s.builds, ms(b.build))
	s.news = append(s.news, ms(b.engNew))
	if on {
		s.tracedTotal = append(s.tracedTotal, ms(totalD))
	} else {
		s.untracedTotal = append(s.untracedTotal, ms(totalD))
	}
	return os.RemoveAll(dir)
}

func (s *jobStats) report(c *runCtx, r *report, w simWorkload) {
	r.check("cold_jobs_identical", s.mismatch)
	sum := 0.0
	for _, t := range s.total {
		sum += t
	}
	n := len(s.total)
	r.set("setup_s", median(s.setup), n)
	r.set("first_frame_ms_p50", median(s.first), n)
	r.set("job_ms_p50", median(s.total), n)
	r.set("job_ms_p90", percentile(s.total, 0.9), n)
	r.set("jobs_per_s", float64(n)/(sum/1e3), n)
	r.set("workload.build_ms", median(s.builds), n)
	r.set("core.new_ms", median(s.news), n)
	if c.traced {
		r.set("trace.overhead_job_ms_p50", median(s.tracedTotal)-median(s.untracedTotal), len(s.tracedTotal))
	}
	r.note("cold-start jobs: %d x %d steps, closed loop", n, w.jobSteps)
}

// kernelTimings times one call of each kernel on the final state, best
// of three like kbench: the pair style, the neighbor-list build and the
// k-space solver (every rank at once, slowest rank reported). It runs
// last because it overwrites the forces.
func kernelTimings(c *runCtx, r *report, e engine, root int) error {
	n := len(e.sims())
	pairT := make([]time.Duration, n)
	pairs := make([]int64, n)
	neighT := make([]time.Duration, n)
	kspT := make([]time.Duration, n)
	best := func(d *time.Duration, fn func()) {
		for i := 0; i < 3; i++ {
			t := time.Now()
			fn()
			if x := time.Since(t); i == 0 || x < *d {
				*d = x
			}
		}
	}
	sp := c.tr.begin(true, "pair.compute", root, -1, "")
	err := e.eachRank(func(rank int, s *core.Simulation) {
		ctx := s.PairContext()
		best(&pairT[rank], func() {
			s.Store.ZeroForces()
			pairs[rank] = s.Cfg.Pair.Compute(ctx).Pairs
		})
	})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sp = c.tr.begin(true, "neighbor.build", root, -1, "")
	err = e.eachRank(func(rank int, s *core.Simulation) {
		best(&neighT[rank], func() { s.NL.Build(s.Store) })
	})
	c.tr.end(sp)
	if err != nil {
		return err
	}
	hasK := e.sims()[0].Cfg.Kspace != nil
	if hasK {
		sp = c.tr.begin(true, "kspace.compute", root, -1, "")
		err = e.eachRank(func(rank int, s *core.Simulation) {
			red := s.KspaceReducer()
			best(&kspT[rank], func() { s.Cfg.Kspace.Compute(s.Store, s.Box, red) })
		})
		c.tr.end(sp)
		if err != nil {
			return err
		}
	}
	slowest := func(ds []time.Duration) float64 {
		var m time.Duration
		for _, d := range ds {
			m = max(m, d)
		}
		return ms(m)
	}
	var total int64
	for _, p := range pairs {
		total += p
	}
	r.set("pair.compute_ms", slowest(pairT), 3)
	r.set("pair.ns_per_pair", slowest(pairT)*1e6/float64(total), 3)
	r.set("pair.pairs_per_atom", float64(total)/float64(e.nglobal()), 1)
	r.set("neighbor.build_ms", slowest(neighT), 3)
	if hasK {
		r.set("kspace.compute_ms", slowest(kspT), 3)
	} else {
		r.set("kspace.compute_ms", 0, 0)
	}
	return nil
}

// setNoServe zeroes the serve layer's metrics on the engine workloads,
// which never reach internal/serve.
func setNoServe(r *report) {
	for _, n := range []string{"serve.submit_ms_p50", "serve.queue_ms_p50", "serve.run_ms_p50",
		"serve.list_ms_p50", "serve.rejected_frac", "serve.replay_ms", "serve.journal_bytes"} {
		r.set(n, 0, 0)
	}
}

// fileSize is the size of path in bytes.
func fileSize(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}

// restorer restores the newest checkpoint generation at path, once
// per round: ckpt.ReadNewestValid (ckpt.read_ms), then restore to a
// runnable engine (restore_s covers both). The first restored engine is
// handed to check before it is closed.
type restorer struct {
	path  string
	keep  int
	open  func(ck *ckpt.Checkpoint, parent int) (engine, error)
	check func(engine) error

	reads, totals []float64
}

func (rs *restorer) sample(c *runCtx, parent int) error {
	sp := c.tr.begin(true, "ckpt.restore", parent, -1, "")
	defer c.tr.end(sp)
	t0 := time.Now()
	rd := c.tr.begin(true, "ckpt.read", sp, -1, "")
	ck, _, _, err := ckpt.ReadNewestValid(rs.path, rs.keep)
	c.tr.end(rd)
	read := time.Since(t0)
	if err != nil {
		return err
	}
	e, err := rs.open(ck, sp)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if len(rs.totals) == 0 && rs.check != nil {
		err = rs.check(e)
	}
	e.close()
	rs.reads = append(rs.reads, ms(read))
	rs.totals = append(rs.totals, d.Seconds())
	return err
}

func (rs *restorer) report(r *report) error {
	r.set("ckpt.read_ms", median(rs.reads), len(rs.reads))
	r.set("restore_s", median(rs.totals), len(rs.totals))
	bytes, err := fileSize(rs.path)
	if err != nil {
		return err
	}
	r.set("ckpt.bytes_per_gen", bytes, 1)
	return nil
}

// captureCheckpoint writes the engine's current state as one
// checkpoint generation (what ckpt.Writer assembles at a checkpoint
// step) for the workloads whose timed phase writes none.
func captureCheckpoint(e engine, grid [3]int, path string) error {
	sims := e.sims()
	s0 := sims[0]
	ck := &ckpt.Checkpoint{Step: s0.Step, Ranks: len(sims), Grid: grid,
		Box: s0.Box, SetupBox: s0.SetupBox, Q2Setup: s0.Q2Setup}
	for _, s := range sims {
		ck.PerRank = append(ck.PerRank, ckpt.CaptureRank(s))
	}
	return ckpt.WriteFileAtomic(path, ck)
}

// sameThermoAfterRestore checks that a restored engine reports the
// thermo state its checkpoint was captured with.
func sameThermoAfterRestore(r *report, want core.Thermo) func(engine) error {
	return func(e engine) error {
		got, err := e.thermo()
		if err != nil {
			return err
		}
		r.check("restore_thermo_identical", checkSameThermo(want, got))
		return nil
	}
}

// ---- lj-serial ----------------------------------------------------------

const ljAtoms = 32000

func ljOptions(c *runCtx) workload.Options {
	return workload.Options{Atoms: ljAtoms, Precision: pair.Double, Seed: subSeed(c.seed, 1)}
}

func ljWorkload() simWorkload {
	var e0 core.Thermo
	return simWorkload{
		// The 100 warm-up steps let the lattice melt: the melting transient
		// both loses energy through the truncated potential and shifts the
		// step time, so the timed phase measures the equilibrated liquid.
		// Its cold-start jobs are short and mostly set-up, whose time
		// varies most on a shared host, so it takes twice the samples.
		workers: 1, rounds: 20, jobSteps: 5, warmup: 100, stepLayer: "core",
		newEngine: func(c *runCtx, dir string, traced bool, parent int, job string) (built, error) {
			t0 := time.Now()
			sp := c.tr.begin(traced, "workload.build", parent, -1, job)
			cfg, st, err := workload.Build(workload.LJ, ljOptions(c))
			c.tr.end(sp)
			if err != nil {
				return built{}, err
			}
			t1 := time.Now()
			sp = c.tr.begin(traced, "core.new", parent, -1, job)
			sim := core.New(cfg, st)
			sim.Prime() // LAMMPS "run 0": forces at step 0
			c.tr.end(sp)
			return built{serialEngine{sim}, t1.Sub(t0), time.Since(t1)}, nil
		},
		primed: func(c *runCtx, r *report, e engine) error {
			s := e.sims()[0]
			r.check("lattice_pe", checkLatticePE(s.LastPE/float64(s.Store.N)))
			return nil
		},
		started: func(c *runCtx, r *report, e engine, dir string) (*restorer, error) {
			var err error
			if e0, err = e.thermo(); err != nil {
				return nil, err
			}
			// The timed phase writes no checkpoint; restore_s restores a
			// snapshot of its starting state.
			path := filepath.Join(dir, "lj.ckpt")
			if err := captureCheckpoint(e, [3]int{1, 1, 1}, path); err != nil {
				return nil, err
			}
			return &restorer{path: path, keep: 1,
				open: func(ck *ckpt.Checkpoint, parent int) (engine, error) {
					sp := c.tr.begin(true, "workload.build", parent, -1, "")
					cfg, _, err := workload.Build(workload.LJ, ljOptions(c))
					c.tr.end(sp)
					if err != nil {
						return nil, err
					}
					s, err := ckpt.RestoreSerial(cfg, ck)
					if err != nil {
						return nil, err
					}
					return serialEngine{s}, nil
				},
				check: sameThermoAfterRestore(r, e0),
			}, nil
		},
		finished: func(c *runCtx, r *report, e engine, dir string) error {
			e1, err := e.thermo()
			if err != nil {
				return err
			}
			r.check("nve_energy_drift", checkNVEDrift(e0.TotalEnergy, e1.TotalEnergy, e.nglobal()))
			r.note("NVE drift: E %.9g -> %.9g over %d steps (%d atoms)",
				e0.TotalEnergy, e1.TotalEnergy, e1.Step-e0.Step, e.nglobal())
			return nil
		},
	}
}

// ---- chain-ckpt ---------------------------------------------------------

const (
	chainAtoms     = 32000
	chainWorkers   = 2
	chainCkptEvery = 20
	chainKeep      = 2
	resumeSteps    = 5
)

func chainFactory(c *runCtx, buildTime *time.Duration, traced bool, parent int, job string) domain.Factory {
	return func() (core.Config, *atom.Store, error) {
		t0 := time.Now()
		sp := c.tr.begin(traced, "workload.build", parent, -1, job)
		cfg, st, err := workload.Build(workload.Chain, workload.Options{
			Atoms: chainAtoms, Precision: pair.Double, Seed: subSeed(c.seed, 2)})
		c.tr.end(sp)
		cfg.Workers = chainWorkers
		if buildTime != nil {
			*buildTime += time.Since(t0)
		}
		return cfg, st, err
	}
}

func chainSupervisor(fac domain.Factory, dir string) *harness.Supervisor {
	return &harness.Supervisor{
		Factory:         fac,
		Ranks:           1,
		CheckpointEvery: chainCkptEvery,
		CheckpointPath:  filepath.Join(dir, "chain.ckpt"),
		KeepCheckpoints: chainKeep,
	}
}

func chainWorkload() simWorkload {
	return simWorkload{
		// A job is one checkpoint interval; the warm-up writes the first
		// generation, so every restore has one to read.
		workers: chainWorkers, ckptEvery: chainCkptEvery, rounds: 10,
		jobSteps: chainCkptEvery, warmup: chainCkptEvery, stepLayer: "core",
		newEngine: func(c *runCtx, dir string, traced bool, parent int, job string) (built, error) {
			var bt time.Duration
			t0 := time.Now()
			sp := c.tr.begin(traced, "core.new", parent, -1, job)
			sup := chainSupervisor(chainFactory(c, &bt, traced, sp, job), dir)
			err := sup.Start()
			c.tr.end(sp)
			if err != nil {
				return built{}, err
			}
			return built{supEngine{sup}, bt, time.Since(t0) - bt}, nil
		},
		primed: func(*runCtx, *report, engine) error { return nil },
		started: func(c *runCtx, r *report, e engine, dir string) (*restorer, error) {
			return &restorer{path: filepath.Join(dir, "chain.ckpt"), keep: chainKeep,
				open: func(ck *ckpt.Checkpoint, parent int) (engine, error) {
					eng, err := domain.Restore(chainFactory(c, nil, true, parent, ""), ck)
					if err != nil {
						return nil, err
					}
					return domainEngine{eng}, nil
				}}, nil
		},
		finished: func(c *runCtx, r *report, e engine, dir string) error {
			// Resume check: run the uninterrupted engine on past its next
			// checkpoint generation, restore that generation into a fresh
			// supervisor, and run both to the same step.
			sp := c.tr.begin(true, "bench.resume", 0, -1, "")
			defer c.tr.end(sp)
			next := (e.stepNo()/chainCkptEvery + 1) * chainCkptEvery
			target := next + resumeSteps
			for e.stepNo() < target {
				if err := e.step(); err != nil {
					return err
				}
			}
			want, err := e.thermo()
			if err != nil {
				return err
			}
			path := filepath.Join(dir, "chain.ckpt")
			_, gen, _, err := ckpt.ReadNewestValid(path, chainKeep)
			if err != nil {
				return err
			}
			rdir := filepath.Join(dir, "resumed")
			if err := os.MkdirAll(rdir, 0o755); err != nil {
				return err
			}
			sup := chainSupervisor(chainFactory(c, nil, true, sp, "resume"), rdir)
			sup.RestartPath = ckpt.GenerationPath(path, gen)
			if err := sup.Start(); err != nil {
				return err
			}
			defer sup.Close()
			from := sup.Step()
			if err := sup.Run(int(target - from)); err != nil {
				return err
			}
			got, err := sup.Thermo()
			if err != nil {
				return err
			}
			r.attempted += int(target-from) + resumeSteps
			r.check("resume_bit_identical", checkSameThermo(want, got))
			r.note("resume: restored generation at step %d, compared at step %d", from, target)
			return nil
		},
	}
}

// ---- rhodo-2rank --------------------------------------------------------

const (
	rhodoAtoms = 4000 // requested; workload.Build rounds to whole molecules
	rhodoRanks = 2
)

func rhodoFactory(c *runCtx, buildTime *time.Duration, traced bool, parent int, job string) domain.Factory {
	return func() (core.Config, *atom.Store, error) {
		t0 := time.Now()
		sp := c.tr.begin(traced, "workload.build", parent, -1, job)
		cfg, st, err := workload.Build(workload.Rhodo, workload.Options{
			Atoms: rhodoAtoms, Precision: pair.Double, Seed: subSeed(c.seed, 3)})
		c.tr.end(sp)
		cfg.Workers = 1
		if buildTime != nil {
			*buildTime += time.Since(t0)
		}
		return cfg, st, err
	}
}

// globalCharge sums the charge (and |charge|) of the owned atoms.
func globalCharge(sims []*core.Simulation) (q, absQ float64, n int) {
	for _, s := range sims {
		for i := 0; i < s.Store.N; i++ {
			q += s.Store.Charge[i]
			absQ += math.Abs(s.Store.Charge[i])
		}
		n += s.Store.N
	}
	return q, absQ, n
}

func rhodoWorkload() simWorkload {
	var q0 float64
	var n0 int
	return simWorkload{
		workers: 1, rounds: 10, jobSteps: 3, warmup: 3, stepLayer: "domain",
		newEngine: func(c *runCtx, dir string, traced bool, parent int, job string) (built, error) {
			var bt time.Duration
			t0 := time.Now()
			sp := c.tr.begin(traced, "domain.new", parent, -1, job)
			eng, err := domain.New(rhodoFactory(c, &bt, traced, sp, job), rhodoRanks)
			if err == nil {
				// "run 0": forces at step 0 on every rank.
				err = domainEngine{eng}.eachRank(func(_ int, s *core.Simulation) { s.Prime() })
			}
			c.tr.end(sp)
			if err != nil {
				return built{}, err
			}
			return built{domainEngine{eng}, bt, time.Since(t0) - bt}, nil
		},
		primed: func(c *runCtx, r *report, e engine) error {
			// The decomposed step-0 energy must match the serial engine's on
			// the same input.
			th, err := e.thermo()
			if err != nil {
				return err
			}
			sp := c.tr.begin(true, "core.new", 0, -1, "serial-reference")
			cfg, st, err := rhodoFactory(c, nil, true, sp, "serial-reference")()
			if err != nil {
				c.tr.end(sp)
				return err
			}
			ref := core.New(cfg, st)
			ref.Prime()
			c.tr.end(sp)
			r.check("pe_2rank_vs_serial", checkRelClose("2-rank step-0 PE", ref.LastPE, th.PotEnergy, 1e-9))
			q0, _, n0 = globalCharge([]*core.Simulation{ref})
			ref.Close()
			return nil
		},
		started: func(c *runCtx, r *report, e engine, dir string) (*restorer, error) {
			th, err := e.thermo()
			if err != nil {
				return nil, err
			}
			// The timed phase writes no checkpoint; restore_s restores a
			// snapshot of its starting state.
			path := filepath.Join(dir, "rhodo.ckpt")
			if err := captureCheckpoint(e, e.(domainEngine).e.Grid, path); err != nil {
				return nil, err
			}
			return &restorer{path: path, keep: 1,
				open: func(ck *ckpt.Checkpoint, parent int) (engine, error) {
					eng, err := domain.Restore(rhodoFactory(c, nil, true, parent, ""), ck)
					if err != nil {
						return nil, err
					}
					return domainEngine{eng}, nil
				},
				check: sameThermoAfterRestore(r, th),
			}, nil
		},
		finished: func(c *runCtx, r *report, e engine, dir string) error {
			q1, absQ, n1 := globalCharge(e.sims())
			if n1 != e.nglobal() {
				r.check("atoms_and_charge_conserved",
					fmt.Errorf("ranks own %d atoms, engine reports %d", n1, e.nglobal()))
				return nil
			}
			r.check("atoms_and_charge_conserved", checkConserved(n0, n1, q0, q1, absQ))
			return nil
		},
	}
}
