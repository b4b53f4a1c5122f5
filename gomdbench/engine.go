package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/harness"
	"gomd/internal/mpi"
	"gomd/internal/obs"
)

// engine is the surface the benchmark drives: the serial engine
// (core.New), a decomposed engine (domain.New) or a supervised one
// (harness.Supervisor). Every method is a call into gomd's public API.
type engine interface {
	step() error
	stepNo() int64
	sims() []*core.Simulation
	counters() core.Counters
	thermo() (core.Thermo, error)
	mpiStats() []mpi.Stats
	publish(reg *obs.Registry)
	// eachRank runs fn on every rank's simulation, concurrently inside
	// the message-passing world for decomposed engines (so kernels that
	// communicate, like PPPM's mesh reduction, can run).
	eachRank(fn func(rank int, s *core.Simulation)) error
	nglobal() int
	close()
}

type serialEngine struct{ s *core.Simulation }

func (e serialEngine) step() error                                   { return e.s.RunChecked(1) }
func (e serialEngine) stepNo() int64                                 { return e.s.Step }
func (e serialEngine) sims() []*core.Simulation                      { return []*core.Simulation{e.s} }
func (e serialEngine) counters() core.Counters                       { return e.s.Counters }
func (e serialEngine) thermo() (core.Thermo, error)                  { return e.s.ComputeThermo(), nil }
func (e serialEngine) mpiStats() []mpi.Stats                         { return nil }
func (e serialEngine) publish(reg *obs.Registry)                     { e.s.PublishObs(reg) }
func (e serialEngine) nglobal() int                                  { return e.s.NGlobal() }
func (e serialEngine) close()                                        { e.s.Close() }
func (e serialEngine) eachRank(fn func(int, *core.Simulation)) error { fn(0, e.s); return nil }

type domainEngine struct{ e *domain.Engine }

func (d domainEngine) step() error                  { return d.e.Run(1) }
func (d domainEngine) stepNo() int64                { return d.e.Step() }
func (d domainEngine) sims() []*core.Simulation     { return d.e.Sims }
func (d domainEngine) counters() core.Counters      { return d.e.Counters() }
func (d domainEngine) thermo() (core.Thermo, error) { return d.e.ThermoErr() }
func (d domainEngine) mpiStats() []mpi.Stats        { return d.e.MPIStats() }
func (d domainEngine) publish(reg *obs.Registry)    { d.e.PublishObs(reg) }
func (d domainEngine) nglobal() int                 { return d.e.NGlobal() }
func (d domainEngine) close()                       { d.e.Close() }
func (d domainEngine) eachRank(fn func(int, *core.Simulation)) error {
	return d.e.World.Parallel(func(c *mpi.Comm) { fn(c.Rank(), d.e.Sims[c.Rank()]) })
}

// supEngine steps through the Supervisor (which writes the checkpoint
// generations) and reads everything else from its current engine.
type supEngine struct{ sup *harness.Supervisor }

func (s supEngine) cur() domainEngine                             { return domainEngine{s.sup.Engine()} }
func (s supEngine) step() error                                   { return s.sup.Run(1) }
func (s supEngine) stepNo() int64                                 { return s.sup.Step() }
func (s supEngine) sims() []*core.Simulation                      { return s.cur().sims() }
func (s supEngine) counters() core.Counters                       { return s.cur().counters() }
func (s supEngine) thermo() (core.Thermo, error)                  { return s.sup.Thermo() }
func (s supEngine) mpiStats() []mpi.Stats                         { return s.cur().mpiStats() }
func (s supEngine) publish(reg *obs.Registry)                     { s.cur().publish(reg) }
func (s supEngine) nglobal() int                                  { return s.cur().nglobal() }
func (s supEngine) close()                                        { s.sup.Close() }
func (s supEngine) eachRank(fn func(int, *core.Simulation)) error { return s.cur().eachRank(fn) }

// snapshot is the engine's cumulative counters at one moment; the
// per-layer metrics are differences of two snapshots.
type snapshot struct {
	step   int64
	times  []core.TaskTimes // per rank
	c      core.Counters    // summed over ranks
	builds int64            // rank 0's neighbor builds
	mpi    []mpi.Stats
	reg    obs.Snapshot
}

func takeSnapshot(e engine) snapshot {
	s := snapshot{step: e.stepNo(), c: e.counters(), mpi: e.mpiStats()}
	for _, sim := range e.sims() {
		s.times = append(s.times, sim.Times)
	}
	s.builds = e.sims()[0].Counters.NeighBuilds
	reg := obs.NewRegistry()
	e.publish(reg)
	s.reg = reg.Snapshot()
	return s
}

// setLayerCounters records the per-layer metrics that come from the
// engine's own counters over the interval between two snapshots:
// Simulation.Times (mean over ranks), Counters, Engine.MPIStats and the
// worker-pool accounting PublishObs exports.
func (r *report) setLayerCounters(a, b snapshot, workers int) {
	steps := float64(b.step - a.step)
	ranks := float64(len(b.times))
	task := func(k core.Task) float64 {
		var sum time.Duration
		for i := range b.times {
			sum += b.times[i][k] - a.times[i][k]
		}
		return ms(sum) / ranks / steps
	}
	n := int(steps)
	r.set("core.pair_ms_per_step", task(core.TaskPair), n)
	r.set("core.neigh_ms_per_step", task(core.TaskNeigh), n)
	r.set("core.kspace_ms_per_step", task(core.TaskKspace), n)
	r.set("core.comm_ms_per_step", task(core.TaskComm), n)
	r.set("core.modify_ms_per_step", task(core.TaskModify), n)
	r.set("core.bond_ms_per_step", task(core.TaskBond), n)

	r.set("neighbor.builds_per_100_steps", 100*float64(b.builds-a.builds)/steps, n)
	if checks := b.c.NeighChecks - a.c.NeighChecks; checks > 0 {
		r.set("neighbor.useful_frac", float64(b.c.NeighPairs-a.c.NeighPairs)/float64(checks), n)
	} else {
		r.set("neighbor.useful_frac", 0, n)
	}
	r.set("kspace.fft_ops_per_step", float64(b.c.KspaceFFTOps-a.c.KspaceFFTOps)/steps, n)
	r.set("domain.ghost_atoms_per_step", float64(b.c.GhostAtoms-a.c.GhostAtoms)/steps, n)

	var maxWait time.Duration
	var bytes, msgs int64
	for i := range b.mpi {
		if w := b.mpi[i].TotalWait() - a.mpi[i].TotalWait(); w > maxWait {
			maxWait = w
		}
		for f := range b.mpi[i].Funcs {
			bytes += b.mpi[i].Funcs[f].Bytes - a.mpi[i].Funcs[f].Bytes
			msgs += b.mpi[i].Funcs[f].Calls - a.mpi[i].Funcs[f].Calls
		}
	}
	r.set("mpi.wait_ms_per_step", ms(maxWait)/steps, n)
	r.set("mpi.bytes_per_step", float64(bytes)/steps, n)
	r.set("mpi.msgs_per_step", float64(msgs)/steps, n)

	// Worker utilization: busy / (workers x wall) over every threaded
	// kernel and rank; 1-worker pools never dispatch and publish none.
	busy := map[string]int64{}
	wall := map[string]int64{}
	for name, v := range b.reg.Counters {
		base, labels := obs.ParseName(name)
		kernel := ""
		for _, l := range labels {
			if l.Key == "kernel" {
				kernel = l.Value
			}
		}
		switch base {
		case "par.busy_ns":
			busy[kernel] += v - a.reg.Counters[name]
		case "par.wall_ns":
			wall[kernel] += v - a.reg.Counters[name]
		}
	}
	var tb, tw int64
	var parts []string
	for k, w := range wall {
		tb += busy[k]
		tw += w
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.3f", k, float64(busy[k])/(float64(workers)*float64(w))))
		}
	}
	util := 0.0
	if tw > 0 {
		util = float64(tb) / (float64(workers) * float64(tw))
		sort.Strings(parts)
		r.note("par.util per kernel: %s", strings.Join(parts, " "))
	}
	r.set("par.util", util, n)
}
