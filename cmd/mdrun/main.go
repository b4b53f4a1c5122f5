// Command mdrun runs one benchmark workload on the gomd engine and
// streams thermodynamic output — the "run a simulation" entry point,
// playing the role of the lmp binary for this repository. Decomposed
// runs (-ranks > 1) execute on the simulated MPI runtime, whose
// collectives are log2(P)-hop trees (recursive-doubling allreduce,
// dissemination barrier) and whose PPPM/Ewald mesh reductions use a
// reduce-scatter + allgather butterfly.
//
// Fault tolerance: -checkpoint-every writes periodic restart files
// (bit-exact: a restored run reproduces the uninterrupted trajectory
// bit for bit), -restart resumes from one, and decomposed runs are
// supervised — a rank failure is recovered automatically from the last
// checkpoint within the -retries budget. Checkpoints carry per-section
// CRCs; -keep-checkpoints retains older generations so a corrupted
// newest file falls back to an intact one. -hang-timeout arms a
// watchdog that converts silent hangs into diagnosed recoveries.
// -fault installs the deterministic fault injector
// (kill/nan/delay/reorder/hang/truncate-ckpt/flip-ckpt) for drills, and
// -check-every enables the numerical guardrails (NaN/Inf forces and
// energies, lost atoms).
//
// Usage:
//
//	mdrun -bench lj -atoms 32000 -steps 200 -thermo 20
//	mdrun -bench rhodo -ranks 8 -steps 50
//	mdrun -bench rhodo -ranks 4 -checkpoint-every 100 -steps 1000
//	mdrun -bench rhodo -ranks 4 -restart run.ckpt -steps 500
//	mdrun -bench rhodo -ranks 4 -fault kill:rank=2,step=50 -checkpoint-every 20 -retries 1
//	mdrun -in examples/scripts/in.lj     # LAMMPS-style input script
//
// Multi-process runs: -listen turns the process into the rendezvous
// coordinator hosting rank 0 over the length-prefixed TCP transport;
// each remaining rank runs its own mdrun with -join and -rank. All
// processes must pass identical workload flags (-bench, -atoms, -seed,
// -steps, -ranks, ...) — each recomputes the same decomposition, which
// is what makes the distributed trajectory byte-identical to the
// in-process one:
//
//	mdrun -bench lj -ranks 2 -steps 200 -listen 127.0.0.1:7777
//	mdrun -bench lj -ranks 2 -steps 200 -join 127.0.0.1:7777 -rank 1
//
// TCP worlds checkpoint in shards: with -checkpoint-every each process
// atomically writes its local ranks' snapshot into a shared shard
// store next to -checkpoint, and a two-phase commit publishes a
// manifest once every shard of a generation is durable. A recovery
// (-retries) re-runs the rendezvous on every process and restores the
// whole world from the newest complete generation — bit-exactly, and
// independent of which process hosts which rank after the re-join —
// falling back generation by generation and finally to scratch. All
// processes must share the checkpoint path (same directory on one
// host, or a shared filesystem). -rendezvous-timeout bounds every
// handshake phase so a missing peer fails the launch with a diagnosis
// instead of hanging it. -restart is still rejected in this mode:
// sharded runs resume from the shard store automatically.
//
//	mdrun -bench lj -ranks 2 -steps 200 -listen 127.0.0.1:7777 -checkpoint-every 50 -retries 2
//	mdrun -bench lj -ranks 2 -steps 200 -join 127.0.0.1:7777 -rank 1 -checkpoint-every 50 -retries 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gomd/internal/atom"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/fault"
	"gomd/internal/harness"
	"gomd/internal/health"
	"gomd/internal/mpi"
	"gomd/internal/obs"
	"gomd/internal/pair"
	"gomd/internal/script"
	"gomd/internal/trace"
	"gomd/internal/workload"
)

func main() {
	var (
		inFile    = flag.String("in", "", "LAMMPS-style input script (overrides -bench)")
		bench     = flag.String("bench", "lj", "workload: rhodo, lj, chain, eam, chute")
		atoms     = flag.Int("atoms", 32000, "approximate atom count")
		steps     = flag.Int("steps", 100, "timesteps to run")
		ranks     = flag.Int("ranks", 1, "MPI ranks (1 = serial engine)")
		workers   = flag.Int("workers", 1, "intra-rank worker-pool width for pair/neighbor/PPPM kernels")
		thermo    = flag.Int("thermo", 10, "thermo output interval")
		seed      = flag.Uint64("seed", 42, "RNG seed")
		prec      = flag.String("precision", "double", "pair arithmetic: single, mixed, double")
		kacc      = flag.Float64("kspace-acc", 0, "rhodo PPPM relative error threshold (default 1e-4)")
		ckptEvery = flag.Int("checkpoint-every", 0, "write a restart checkpoint every N steps (0 = off)")
		ckptPath  = flag.String("checkpoint", "mdrun.ckpt", "checkpoint file path")
		ckptKeep  = flag.Int("keep-checkpoints", 1, "checkpoint generations to retain (N>1 rotates path -> path.1 -> ...)")
		restart   = flag.String("restart", "", "resume bit-exactly from this checkpoint file")
		retries   = flag.Int("retries", 0, "automatic recoveries from rank failures (decomposed runs)")
		hangTO    = flag.Duration("hang-timeout", 0, "abort+recover ranks making no progress for this long, with a parked-primitive diagnosis (decomposed runs; 0 = off)")
		faultSpec = flag.String("fault", "", "deterministic fault injection, e.g. kill:rank=1,step=50;nan:rank=0,step=30")
		chkEvery  = flag.Int("check-every", 0, "run numerical guardrails (NaN/Inf/lost-atom) every N steps (0 = off)")
		logPath   = flag.String("log", "", "write a JSONL data log (run summary, recoveries)")
		traceOut  = flag.String("trace", "", "write a per-rank Chrome trace-event timeline (Perfetto) to this file")
		metrOut   = flag.String("metrics", "", "write an engine metrics JSON dump to this file")
		metrAddr  = flag.String("metrics-addr", "", "serve live OpenMetrics on this address (e.g. :9100; /metrics and /metrics.json)")
		flight    = flag.String("flight", "", "arm the crash flight recorder; rank failures/hangs/guardrail trips dump the last steps as JSONL to this path")
		flightN   = flag.Int("flight-depth", 0, "flight-recorder steps retained per rank (0 = 256)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
		listen    = flag.String("listen", "", "host rank 0 over TCP: listen on this address and wait for the other ranks to -join")
		join      = flag.String("join", "", "join a TCP world at this coordinator address (requires -rank)")
		rank      = flag.Int("rank", -1, "the rank this joiner process hosts (with -join)")
		rvTO      = flag.Duration("rendezvous-timeout", 30*time.Second, "bound on every TCP rendezvous phase (dial, hello, mesh, ready/go)")
	)
	flag.Parse()

	tcpMode := *listen != "" || *join != ""
	if tcpMode {
		fail := func(msg string) {
			fmt.Fprintf(os.Stderr, "mdrun: %s\n", msg)
			os.Exit(2)
		}
		switch {
		case *listen != "" && *join != "":
			fail("-listen and -join are mutually exclusive")
		case *ranks < 2:
			fail("TCP worlds need -ranks >= 2 (pass the same -ranks to every process)")
		case *join != "" && (*rank < 1 || *rank >= *ranks):
			fail("-join requires -rank between 1 and ranks-1 (rank 0 is the coordinator's)")
		case *inFile != "":
			fail("-in scripts run serial and cannot span processes")
		case *restart != "":
			fail("-restart is for serial/in-process runs; TCP worlds resume automatically from -checkpoint's shard store")
		}
	}

	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# pprof listening on http://%s/debug/pprof/\n", addr)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(*ranks)
	}
	var metrics *obs.Registry
	if *metrOut != "" || *metrAddr != "" {
		metrics = obs.NewRegistry()
	}
	var ms *obs.MetricsServer // nil-safe: Shutdown no-ops when unset
	if *metrAddr != "" {
		var err error
		ms, err = obs.Serve(*metrAddr, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# metrics listening on http://%s/metrics\n", ms.Addr())
	}
	var dlog *trace.Logger // nil-safe: methods no-op when unset
	if *logPath != "" {
		lf, err := os.Create(*logPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(1)
		}
		defer lf.Close()
		dlog = trace.New(lf)
	}
	writeObs := func() {
		// Let in-flight scrapes finish before the process goes away.
		if err := ms.ShutdownTimeout(2 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: metrics shutdown: %v\n", err)
		}
		if err := obs.WriteFiles(tracer, metrics, *traceOut, *metrOut); err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(1)
		}
		if err := dlog.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: data log incomplete: %v\n", err)
			os.Exit(1)
		}
	}

	// SIGINT/SIGTERM stop the run at the next chunk boundary — after a
	// final cadence checkpoint when -checkpoint-every is armed, so the
	// interrupted trajectory is resumable. A second signal kills the
	// process the default way.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	interrupted := func() bool {
		select {
		case s := <-sigC:
			signal.Stop(sigC)
			fmt.Fprintf(os.Stderr, "# mdrun: %v: stopping gracefully (a second signal kills)\n", s)
			return true
		default:
			return false
		}
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		var err error
		inj, err = fault.Parse(*faultSpec, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(2)
		}
	}

	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		interp := script.New(os.Stdout)
		start := time.Now()
		if err := interp.Run(f); err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %s: %v\n", *inFile, err)
			os.Exit(1)
		}
		if sim := interp.Sim(); sim != nil {
			report(sim, time.Since(start), int(sim.Step))
		}
		writeObs()
		return
	}

	var precision pair.Precision
	switch *prec {
	case "single":
		precision = pair.Single
	case "mixed":
		precision = pair.Mixed
	case "double":
		precision = pair.Double
	default:
		fmt.Fprintf(os.Stderr, "mdrun: unknown precision %q\n", *prec)
		os.Exit(2)
	}

	opts := workload.Options{
		Atoms:          *atoms,
		Precision:      precision,
		KspaceAccuracy: *kacc,
		Seed:           *seed,
		ThermoEvery:    *thermo,
	}
	name := workload.Name(*bench)

	start := time.Now()
	if *ranks <= 1 {
		cfg, st, err := workload.Build(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(1)
		}
		cfg.ThermoTo = os.Stdout
		cfg.Trace = tracer
		cfg.Metrics = metrics
		cfg.Workers = *workers
		cfg.CheckEvery = *chkEvery
		cfg.Fault = inj
		if metrics != nil {
			// Live scrapes expect heartbeat gauges even without a watchdog.
			cfg.Health = health.NewMonitor(1)
		}
		var fl *obs.Flight
		if *flight != "" {
			fl = obs.NewFlight(1, *flightN)
			cfg.Flight = fl
		}
		if *ckptEvery > 0 {
			w := ckpt.NewWriter(*ckptPath, 1)
			w.SetGrid([3]int{1, 1, 1})
			w.SetKeep(*ckptKeep)
			if inj != nil {
				w.SetCorruptor(inj.CorruptCheckpoint)
			}
			cfg.CheckpointEvery = *ckptEvery
			cfg.CheckpointSink = w.Sink()
		}
		var sim *core.Simulation
		if *restart != "" {
			ck, err := ckpt.ReadFile(*restart)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mdrun: reading restart checkpoint: %v\n", err)
				os.Exit(1)
			}
			sim, err = ckpt.RestoreSerial(cfg, ck)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("# resumed from %s at step %d\n", *restart, sim.Step)
		} else {
			sim = core.New(cfg, st)
		}
		defer sim.Close()
		fmt.Printf("# %s: %d atoms, serial, dt=%g (%s units)\n",
			name, sim.Store.N, cfg.Dt, cfg.Units.Style)
		// Chunked so signals land between chunks, with chunks ending on the
		// absolute checkpoint grid (thermo grid when not checkpointing):
		// an interrupted run stops right after a cadence checkpoint and
		// stays resumable. Chunk boundaries do not perturb the trajectory —
		// the engine steps one timestep at a time regardless.
		first := int(sim.Step)
		target := first + *steps
		stride := *ckptEvery
		if stride <= 0 {
			stride = *thermo
		}
		if stride <= 0 {
			stride = 100
		}
		stopped := false
		for pos := first; pos < target; pos = int(sim.Step) {
			chunk := stride - pos%stride
			if pos+chunk > target {
				chunk = target - pos
			}
			if err := sim.RunChecked(chunk); err != nil {
				if p := dumpFlight(fl, *flight); p != "" {
					fmt.Fprintf(os.Stderr, "mdrun: %v (flight dump: %s)\n", err, p)
				} else {
					fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
				}
				os.Exit(1)
			}
			if int(sim.Step) < target && interrupted() {
				stopped = true
				break
			}
		}
		sim.PublishObs(metrics)
		dlog.Log("run", map[string]any{
			"bench": string(name), "ranks": 1, "steps": *steps, "final_step": sim.Step,
			"interrupted": stopped,
		})
		writeObs()
		report(sim, time.Since(start), int(sim.Step)-first)
		if stopped {
			msg := fmt.Sprintf("# mdrun: interrupted at step %d", sim.Step)
			if *ckptEvery > 0 && sim.Step%int64(*ckptEvery) == 0 {
				msg += fmt.Sprintf("; resume with -restart %s", *ckptPath)
			}
			if p := dumpFlight(fl, *flight); p != "" {
				msg += fmt.Sprintf(" (flight dump: %s)", p)
			}
			fmt.Fprintln(os.Stderr, msg)
			os.Exit(130)
		}
		return
	}

	sup := &harness.Supervisor{
		Factory: func() (core.Config, *atom.Store, error) {
			cfg, st, err := workload.Build(name, opts)
			cfg.ThermoTo = nil // rank-local thermo would interleave
			cfg.Trace = tracer
			cfg.Metrics = metrics
			cfg.Workers = *workers
			cfg.CheckEvery = *chkEvery
			cfg.Fault = inj
			return cfg, st, err
		},
		Ranks:           *ranks,
		CheckpointEvery: *ckptEvery,
		CheckpointPath:  *ckptPath,
		RestartPath:     *restart,
		KeepCheckpoints: *ckptKeep,
		Retries:         *retries,
		HangTimeout:     *hangTO,
		Fault:           inj,
		Metrics:         metrics,
		Tracer:          tracer,
		Trace:           dlog,
		FlightPath:      *flight,
		FlightDepth:     *flightN,
	}
	// Multi-process mode: every process (coordinator and joiners) runs
	// this same supervisor loop; the WorldBuilder re-runs each process'
	// side of the rendezvous on every build attempt, so a recovery
	// reassembles the socket mesh before restoring or restarting.
	if *listen != "" {
		sup.WorldBuilder = func() (*mpi.World, error) {
			co, err := mpi.ListenTCP(*listen, *ranks)
			if err != nil {
				return nil, err
			}
			return co.Host([]int{0}, mpi.WorldOptions{Rendezvous: *rvTO})
		}
	} else if *join != "" {
		sup.WorldBuilder = func() (*mpi.World, error) {
			return mpi.JoinTCP(*join, []int{*rank}, mpi.WorldOptions{Rendezvous: *rvTO})
		}
	}
	// Joiners stay quiet: thermo lines are identical on every process
	// (the reductions are collective), so rank 0's process speaks for
	// the world.
	chatty := *join == ""
	if err := sup.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
		os.Exit(1)
	}
	eng := sup.Engine()
	if chatty {
		fmt.Printf("# %s: %d atoms, %d ranks (grid %dx%dx%d)\n",
			name, eng.NGlobal(), *ranks, eng.Grid[0], eng.Grid[1], eng.Grid[2])
		if *restart != "" {
			fmt.Printf("# resumed from %s at step %d\n", *restart, eng.Step())
		} else if gen := sup.LastRestore(); gen >= 0 {
			fmt.Printf("# restored from shard generation %d\n", gen)
		}
	}
	// Position-driven chunk loop: progress is reread from the engine
	// each iteration, so after a recovery on a TCP world (ErrRestarted)
	// every process replays the same chunk/thermo schedule from the
	// restored step — identically, which is what keeps their collective
	// schedules aligned through recoveries. Thermo lines already printed
	// are not reprinted on replay.
	var printed int64 = -1
	reported := 0
	target := *steps
	stopped := false
	for {
		// Report each recovery's restore point as it happens: a sharded
		// rebuild resumes from a generation, a scratch rebuild from step 0.
		if n := sup.Attempts(); chatty && tcpMode && n > reported {
			reported = n
			if gen := sup.LastRestore(); gen >= 0 {
				fmt.Printf("# restored from shard generation %d\n", gen)
			} else {
				fmt.Printf("# restarted from scratch\n")
			}
		}
		pos := int(sup.Step())
		if !stopped && interrupted() {
			stopped = true
			// Drain to the next cadence checkpoint so the interrupted run
			// resumes bit-exactly; without checkpointing, stop here.
			if *ckptEvery > 0 {
				if next := ((pos + *ckptEvery - 1) / *ckptEvery) * *ckptEvery; next < target {
					target = next
				}
			} else {
				target = pos
			}
		}
		if pos >= target {
			break
		}
		chunk := *thermo
		if chunk <= 0 || pos+chunk > target {
			chunk = target - pos
		}
		if err := sup.Run(chunk); err != nil {
			if errors.Is(err, harness.ErrRestarted) {
				continue
			}
			sup.Close()
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(1)
		}
		// Thermo is collective — every process computes it, rank 0's
		// process prints it. Supervised: a peer process failing mid-
		// collective recovers instead of panicking.
		th, err := sup.Thermo()
		if err != nil {
			if errors.Is(err, harness.ErrRestarted) {
				continue
			}
			sup.Close()
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
			os.Exit(1)
		}
		if chatty && th.Step > printed {
			fmt.Printf("step %8d  T %10.4f  P %12.5g  PE %14.6g  KE %14.6g  E %14.6g\n",
				th.Step, th.Temperature, th.Pressure, th.PotEnergy, th.KinEnergy, th.TotalEnergy)
			printed = th.Step
		}
	}
	wall := time.Since(start)
	sup.Engine().PublishObs(metrics)
	if n := sup.Attempts(); n > 0 && chatty {
		fmt.Printf("# recovered from %d rank failure(s)\n", n)
	}
	finalStep := sup.Step()
	dlog.Log("run", map[string]any{
		"bench": string(name), "ranks": *ranks, "steps": *steps,
		"final_step": finalStep, "recoveries": sup.Attempts(),
		"interrupted": stopped,
	})
	var flightDump string
	if stopped {
		flightDump = dumpFlight(sup.Flight(), *flight)
	}
	sup.Close()
	writeObs()
	if chatty {
		fmt.Printf("# wall %.3fs  %.2f TS/s (host-machine rate, not the modeled platform)\n",
			wall.Seconds(), float64(finalStep)/wall.Seconds())
	}
	if stopped {
		msg := fmt.Sprintf("# mdrun: interrupted at step %d", finalStep)
		if *ckptEvery > 0 && finalStep > 0 && finalStep%int64(*ckptEvery) == 0 {
			msg += fmt.Sprintf("; checkpoint %s is current", *ckptPath)
		}
		if flightDump != "" {
			msg += fmt.Sprintf(" (flight dump: %s)", flightDump)
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(130)
	}
}

// dumpFlight writes the serial run's flight-recorder tail, returning
// the path on success ("" when disabled or the write failed).
func dumpFlight(fl *obs.Flight, path string) string {
	if fl == nil || path == "" {
		return ""
	}
	fh, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer fh.Close()
	if fl.WriteJSONL(fh) != nil {
		return ""
	}
	return path
}

func report(sim *core.Simulation, wall time.Duration, steps int) {
	th := sim.ComputeThermo()
	fmt.Printf("# final: T %.4f  PE %.6g  E %.6g\n", th.Temperature, th.PotEnergy, th.TotalEnergy)
	fmt.Printf("# wall %.3fs  %.2f TS/s (host-machine rate)\n",
		wall.Seconds(), float64(steps)/wall.Seconds())
	fmt.Printf("# task wall-time shares:")
	tot := sim.Times.Total()
	for _, task := range core.Tasks() {
		if tot > 0 {
			fmt.Printf("  %s %.1f%%", task, 100*float64(sim.Times[task])/float64(tot))
		}
	}
	fmt.Println()
}
