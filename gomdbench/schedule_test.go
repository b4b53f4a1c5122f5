package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	const window = 10 * time.Second
	a, poolA := schedule(7, window, serveRate)
	b, poolB := schedule(7, window, serveRate)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(poolA, poolB) {
		t.Fatal("the same seed gave two schedules")
	}
	c, _ := schedule(8, window, serveRate)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if len(a) != 100 || len(c) != 100 {
		t.Fatalf("%d and %d arrivals, want rate x window = 100", len(a), len(c))
	}
	inPool := map[uint64]bool{}
	for _, s := range poolA {
		if s == 0 {
			t.Error("job seed 0 would be replaced by mdserve's default")
		}
		inPool[s] = true
	}
	if len(inPool) != seedPool {
		t.Errorf("%d distinct job inputs, want %d", len(inPool), seedPool)
	}
	for i, x := range a {
		if x.due <= 0 || x.due > window {
			t.Errorf("arrival %d due at %s, outside the window", i, x.due)
		}
		if i > 0 && x.due < a[i-1].due {
			t.Errorf("arrival %d due before arrival %d", i, i-1)
		}
		if !inPool[x.seed] {
			t.Errorf("arrival %d submits seed %d, not in the pool", i, x.seed)
		}
	}
}

// Every seed draws the same inter-arrival gaps, in another order.
func TestScheduleGapsAreStratified(t *testing.T) {
	gaps := func(seed uint64) []time.Duration {
		a, _ := schedule(seed, 10*time.Second, serveRate)
		var g []time.Duration
		prev := time.Duration(0)
		for _, x := range a {
			g = append(g, x.due-prev)
			prev = x.due
		}
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		return g
	}
	a, b := gaps(1), gaps(2)
	for i := range a {
		if d := a[i] - b[i]; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("sorted gap %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Exponential gaps: the mean is 1/rate, the median ln 2 / rate.
	med := a[len(a)/2]
	ln2 := math.Ln2
	want := time.Duration(ln2 / serveRate * 1e9)
	if med < want*9/10 || med > want*11/10 {
		t.Errorf("median gap %s, want about %s", med, want)
	}
}

// Every seed replays one cyclic trace of gaps from its own start.
func TestScheduleRotatesOneTrace(t *testing.T) {
	gaps := func(seed uint64) []time.Duration {
		a, _ := schedule(seed, 10*time.Second, serveRate)
		var g []time.Duration
		prev := time.Duration(0)
		for _, x := range a {
			g = append(g, x.due-prev)
			prev = x.due
		}
		return g
	}
	near := func(x, y time.Duration) bool { return x-y < time.Microsecond && y-x < time.Microsecond }
	a, b := gaps(1), gaps(2)
	n := len(a)
	for shift := 0; shift < n; shift++ {
		match := true
		for i := 0; i < n && match; i++ {
			match = near(a[i], b[(i+shift)%n])
		}
		if match {
			return
		}
	}
	t.Error("seed 2's gaps are not a rotation of seed 1's")
}

func TestSubSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for stream := uint64(1); stream <= 4; stream++ {
			s := subSeed(seed, stream)
			if s == 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d: zero or repeated", seed, stream, s)
			}
			seen[s] = true
			if subSeed(seed, stream) != s {
				t.Fatal("subSeed is not deterministic")
			}
		}
	}
}
