// End-to-end proof that the TCP transport is physically transparent:
// a decomposed run whose ranks are split across OS-process boundaries
// (modeled here as separate worlds in one test binary, linked only by
// loopback sockets) must reproduce the in-process channel trajectory
// bit for bit — through undisturbed runs, supervised kill recovery
// with re-rendezvous, and the seeded kill/hang/corrupt-wire soak.
package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gomd/internal/domain"
	"gomd/internal/fault"
	"gomd/internal/mpi"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

// localBitSnapshot is bitSnapshot restricted to the ranks a process
// hosts (remote ranks have nil Sims on a spanning world).
func localBitSnapshot(e *domain.Engine) map[int64][2]vec.V3 {
	out := map[int64][2]vec.V3{}
	for _, s := range e.Sims {
		if s == nil {
			continue
		}
		st := s.Store
		for i := 0; i < st.N; i++ {
			out[st.Tag[i]] = [2]vec.V3{st.Pos[i], st.Vel[i]}
		}
	}
	return out
}

// mergeSnapshots unions per-process snapshots (rank ownership is
// disjoint, so a tag colliding across processes is itself a bug).
func mergeSnapshots(t *testing.T, parts ...map[int64][2]vec.V3) map[int64][2]vec.V3 {
	t.Helper()
	out := map[int64][2]vec.V3{}
	for _, p := range parts {
		for tag, v := range p {
			if _, dup := out[tag]; dup {
				t.Fatalf("tag %d owned by two processes", tag)
			}
			out[tag] = v
		}
	}
	return out
}

// channelReference runs the workload on the in-process channel world
// and returns its final bits.
func channelReference(t *testing.T, name workload.Name, atoms, ranks, total int) map[int64][2]vec.V3 {
	t.Helper()
	ref, err := domain.New(wlFactory(name, atoms, 1, nil), ranks)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	defer ref.Close()
	if err := ref.Run(total); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return bitSnapshot(ref)
}

// tcpBitIdentityCase: split a 4-rank run across two worlds joined over
// loopback TCP (two ranks each) and require the trajectory to be
// bit-identical to the channel reference.
func tcpBitIdentityCase(t *testing.T, name workload.Name, atoms, total int) {
	t.Helper()
	const ranks = 4
	want := channelReference(t, name, atoms, ranks, total)

	co, err := mpi.ListenTCP("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	var wg sync.WaitGroup
	snaps := make([]map[int64][2]vec.V3, 2)
	errs := make([]error, 2)
	proc := func(i int, build func() (*mpi.World, error)) {
		defer wg.Done()
		w, err := build()
		if err != nil {
			errs[i] = err
			return
		}
		eng, err := domain.NewOnWorld(wlFactory(name, atoms, 1, nil), w)
		if err != nil {
			errs[i] = err
			return
		}
		defer eng.Close()
		if err := eng.Run(total); err != nil {
			errs[i] = err
			return
		}
		snaps[i] = localBitSnapshot(eng)
	}
	wg.Add(2)
	go proc(1, func() (*mpi.World, error) {
		return mpi.JoinTCP(co.Addr(), []int{2, 3}, mpi.WorldOptions{})
	})
	proc(0, func() (*mpi.World, error) {
		return co.Host([]int{0, 1}, mpi.WorldOptions{})
	})
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	requireBitIdentical(t, want, mergeSnapshots(t, snaps...))
}

// TestTCPTransportBitIdentityLJ: 4-rank Lennard-Jones across two
// processes, byte-identical to the channel world.
func TestTCPTransportBitIdentityLJ(t *testing.T) {
	tcpBitIdentityCase(t, workload.LJ, 2048, 40)
}

// TestTCPTransportBitIdentityRhodo: the rhodopsin-class workload
// (bonded terms, PPPM mesh butterflies, cluster migration) across two
// processes, byte-identical to the channel world.
func TestTCPTransportBitIdentityRhodo(t *testing.T) {
	tcpBitIdentityCase(t, workload.Rhodo, 1500, 30)
}

// tcpSupervisedCase runs a 4-rank workload split across two supervised
// processes under a fault plan; both supervisors carry a WorldBuilder,
// so every recovery re-runs the rendezvous (fresh coordinator address
// handed over addrCh) and restarts from scratch. Returns the merged
// final bits and the total recovery attempts across both processes.
func tcpSupervisedCase(t *testing.T, name workload.Name, atoms, total int, spec string, retries int) (map[int64][2]vec.V3, int) {
	t.Helper()
	const ranks = 4
	addrCh := make(chan string, 2*(retries+1))
	mkSup := func(local []int, coordinator bool) *Supervisor {
		inj, err := fault.Parse(spec, 7)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s := &Supervisor{
			Factory:     wlFactory(name, atoms, 1, inj),
			Ranks:       ranks,
			Retries:     retries,
			HangTimeout: hangDeadline,
		}
		if coordinator {
			s.WorldBuilder = func() (*mpi.World, error) {
				co, err := mpi.ListenTCP("127.0.0.1:0", ranks)
				if err != nil {
					return nil, err
				}
				addrCh <- co.Addr()
				return co.Host(local, mpi.WorldOptions{})
			}
		} else {
			s.WorldBuilder = func() (*mpi.World, error) {
				return mpi.JoinTCP(<-addrCh, local, mpi.WorldOptions{})
			}
		}
		return s
	}
	// Every process drives the same position-based loop: a recovery
	// (ErrRestarted) rereads Step() and replays, keeping the processes'
	// collective schedules aligned (see harness.ErrRestarted).
	drive := func(s *Supervisor) error {
		if err := s.Start(); err != nil {
			return err
		}
		for {
			n := total - int(s.Step())
			if n <= 0 {
				return nil
			}
			if err := s.Run(n); err != nil {
				if errors.Is(err, ErrRestarted) {
					continue
				}
				return err
			}
		}
	}
	sups := []*Supervisor{mkSup([]int{0, 1}, true), mkSup([]int{2, 3}, false)}
	errs := make([]error, len(sups))
	var wg sync.WaitGroup
	for i, s := range sups {
		wg.Add(1)
		go func(i int, s *Supervisor) {
			defer wg.Done()
			errs[i] = drive(s)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d under %q: %v", i, spec, err)
		}
	}
	got := mergeSnapshots(t,
		localBitSnapshot(sups[0].Engine()), localBitSnapshot(sups[1].Engine()))
	attempts := sups[0].Attempts() + sups[1].Attempts()
	for _, s := range sups {
		s.Close()
	}
	return got, attempts
}

// TestTCPSupervisorKillRecovery is the cross-process recovery drill: a
// rank in the joiner process is killed at step 50, both supervisors
// must rebuild over a fresh rendezvous and replay, and the finished
// trajectory must still be bit-identical to the channel reference.
func TestTCPSupervisorKillRecovery(t *testing.T) {
	const atoms, total = 2048, 60
	want := channelReference(t, workload.LJ, atoms, 4, total)
	got, attempts := tcpSupervisedCase(t, workload.LJ, atoms, total, "kill:rank=2,step=50", 1)
	if attempts == 0 {
		t.Error("injected kill never fired")
	}
	requireBitIdentical(t, want, got)
}

// TestSoakTCPLoopback is the TCP-loopback cell of `make soak`: seeded
// kill plus a second drawn fault (hang or corrupt-wire) against a
// supervised two-process world, finishing bit-exact against the
// channel reference. Draws are deterministic, so failures reproduce.
func TestSoakTCPLoopback(t *testing.T) {
	const atoms, total = 2048, 40
	want := channelReference(t, workload.LJ, atoms, 4, total)
	rnd := rand.New(rand.NewSource(2040))
	for run := 0; run < 3; run++ {
		// Draw outside t.Run so the stream position is deterministic even
		// if a subtest fails early; alternate the second fault's kind by
		// cell so both the watchdog (hang) and the CRC reject path
		// (corrupt-wire) are always exercised.
		spec := fmt.Sprintf("kill:rank=%d,step=%d", rnd.Intn(4), 10+rnd.Intn(20))
		if run%2 == 0 {
			spec += fmt.Sprintf(";hang:rank=%d,step=%d", rnd.Intn(4), 10+rnd.Intn(20))
		} else {
			spec += fmt.Sprintf(";corrupt-wire:step=%d", 10+rnd.Intn(20))
		}
		t.Run(spec, func(t *testing.T) {
			got, attempts := tcpSupervisedCase(t, workload.LJ, atoms, total, spec, 5)
			if attempts == 0 {
				t.Errorf("fault plan %q caused no recovery (plan never fired?)", spec)
			}
			requireBitIdentical(t, want, got)
		})
	}
}
