package domain

import (
	"fmt"

	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/mpi"
)

// Restore rebuilds a decomposed engine from a checkpoint: the inverse
// of a run whose ranks fed a ckpt.Writer. The factory must describe the
// same workload the checkpoint was taken from (same pair style, fixes,
// rank count, and CheckpointEvery — the checkpoint records per-rank
// atom ownership and store order, so re-decomposition is not
// supported). The returned engine continues the original trajectory
// bit-exactly from ck.Step. It is RestoreOnWorld over an in-process
// world of ck.Ranks ranks.
func Restore(factory Factory, ck *ckpt.Checkpoint) (*Engine, error) {
	if ck.Ranks < 1 || len(ck.PerRank) != ck.Ranks {
		return nil, fmt.Errorf("domain: checkpoint has %d rank records for %d ranks", len(ck.PerRank), ck.Ranks)
	}
	if g := ck.Grid[0] * ck.Grid[1] * ck.Grid[2]; g != ck.Ranks {
		return nil, fmt.Errorf("domain: checkpoint grid %v does not cover %d ranks", ck.Grid, ck.Ranks)
	}
	return RestoreOnWorld(factory, mpi.NewWorld(ck.Ranks), ck.ShardSet())
}

// RestoreOnWorld rebuilds a decomposed engine over an existing
// (possibly process-spanning) world from a checkpoint generation. ss
// must hold snapshots for every rank in world.LocalRanks() (ckpt.
// ReadNewestValidManifest loads exactly that set; a mono checkpoint's
// ShardSet holds all of them). Shards are keyed by rank, not by
// process, so a re-rendezvoused world may place ranks on different
// processes than the run that wrote the generation and still continue
// the trajectory bit-exactly. Every process must restore the same
// generation: the first collective is AgreeGeneration. The engine takes
// ownership of the world.
func RestoreOnWorld(factory Factory, world *mpi.World, ss *ckpt.ShardSet) (*Engine, error) {
	nranks := world.Size
	if ss.WorldSize != nranks {
		world.Close()
		return nil, fmt.Errorf("domain: shard set is for a %d-rank world; this world has %d ranks (re-decomposition is not supported)", ss.WorldSize, nranks)
	}
	grid := ss.Grid
	if g := grid[0] * grid[1] * grid[2]; g != nranks {
		world.Close()
		return nil, fmt.Errorf("domain: shard-set grid %v does not cover %d ranks", grid, nranks)
	}
	local := world.LocalRanks()
	for _, r := range local {
		if ss.Ranks[r] == nil {
			world.Close()
			return nil, fmt.Errorf("domain: shard set has no snapshot for local rank %d", r)
		}
	}

	cfg, _, err := factory()
	if err != nil {
		world.Close()
		return nil, err
	}

	e := &Engine{World: world, Sims: make([]*core.Simulation, nranks), Grid: grid, nglobal: int(ss.NGlobal)}

	// Per-rank configs need fresh style instances for the ranks this
	// process hosts, with the same seed decorrelation as NewOnWorld.
	cfgs := make([]core.Config, nranks)
	cfgs[local[0]] = cfg
	for _, r := range local[1:] {
		c2, _, err := factory()
		if err != nil {
			world.Close()
			return nil, err
		}
		cfgs[r] = c2
	}
	for _, r := range local {
		cfgs[r].Seed = cfg.Seed + uint64(r)*0x9e3779b9
	}

	if cfg.Fault != nil {
		// Same wiring as NewOnWorld: step-addressed faults must not match
		// this world's construction-time traffic against steps published
		// by the failed attempt.
		cfg.Fault.ResetSteps()
		world.SetFaultHook(cfg.Fault)
		world.SetWireFaultHook(cfg.Fault)
	}

	if err := world.Parallel(func(c *mpi.Comm) {
		r := c.Rank()
		if tr := cfgs[r].Trace; tr != nil {
			c.SetSpan(tr.Rank(r))
		}
		AgreeGeneration(c, ss.Step)
		be := &Backend{
			comm: c,
			grid: grid,
			// Rank linearization is x-fastest: r = cx + gx*(cy + gy*cz).
			coord: [3]int{
				r % grid[0],
				(r / grid[0]) % grid[1],
				r / (grid[0] * grid[1]),
			},
			nglobal: int(ss.NGlobal),
		}
		s, err := ss.RestoreRank(cfgs[r], r, be)
		if err != nil {
			panic(err)
		}
		e.Sims[r] = s
	}); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// AgreeGeneration is the collective every build of a process-spanning
// world opens with: each process contributes the checkpoint step it
// restores (-1 for a step-0 build). Every process scanned its own disk;
// the commit protocol orders the manifest before any restart
// rendezvous, but a divergent scan (an operator deleted files on one
// host) must fail loudly on every process, not integrate mismatched
// states or stall in mismatched collectives — so the check compares
// both the max and the min, and panics into the world's abort path (a
// recoverable *mpi.RankError) on any disagreement.
func AgreeGeneration(c *mpi.Comm, step int64) {
	hi := int64(c.AllreduceMax(float64(step)))
	lo := -int64(c.AllreduceMax(float64(-step)))
	if hi != step || lo != step {
		panic(fmt.Errorf("domain: checkpoint generation mismatch: rank %d resumes step %d, the world resumes steps %d..%d (-1 = step-0 build)", c.Rank(), step, lo, hi))
	}
}

// Step returns the engine's current step counter (the first local
// rank's copy; all ranks advance in lockstep).
func (e *Engine) Step() int64 { return e.firstSim().Step }
