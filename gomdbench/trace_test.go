package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gomd/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "bench.run", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "core.step", Start: at(10), End: at(40)},
		{ID: 3, Parent: 2, Name: "pair.compute", Start: at(15), End: at(25)},
		// Overlapping children (concurrent jobs) count their union once.
		{ID: 4, Parent: 1, Name: "serve.job", Start: at(50), End: at(80)},
		{ID: 5, Parent: 1, Name: "serve.job", Start: at(60), End: at(90)},
		{ID: 6, Parent: 5, Name: "serve.submit", Start: at(60), End: at(62)},
		// A child reaching past its parent is clipped to it.
		{ID: 7, Parent: 4, Name: "core.new", Start: at(75), End: at(95)},
		// Open spans are ignored.
		{ID: 8, Parent: 1, Name: "ckpt.read", Start: at(95)},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"bench":  100 - 30 - 40, // children cover [10,40] and [50,90]
		"core":   (30 - 10) + 20,
		"pair":   10,
		"serve":  (30 - 5) + (30 - 2) + 2, // the submit span is serve too
		"kspace": 0,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s self time %v ms, want %v", layer, got[layer], w)
		}
	}
}

func TestTracerWritesChromeTrace(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin(true, "bench.run", 0, -1, "")
	step := tr.begin(true, "core.step", root, 41, "")
	tr.rename(step, "ckpt.step")
	tr.end(step)
	if id := tr.begin(false, "core.step", root, 42, ""); id != 0 {
		t.Errorf("untraced span got ID %d", id)
	}
	job := tr.begin(true, "serve.job", root, -1, "bench-3")
	tr.setTrack(job, 103)
	tr.end(job)
	tr.end(root)

	path := filepath.Join(t.TempDir(), "traces", "t.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tf, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.TraceEvent{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			byName[ev.Name] = ev
		}
	}
	if len(byName) != 3 {
		t.Fatalf("got events %v, want bench.run, ckpt.step, serve.job", byName)
	}
	st := byName["ckpt.step"]
	if st.Cat != "ckpt" || st.Args["parent"] != float64(root) || st.Args["step"] != float64(41) {
		t.Errorf("step event %+v", st)
	}
	jb := byName["serve.job"]
	if jb.Tid != 103 || jb.Args["job"] != "bench-3" {
		t.Errorf("job event %+v", jb)
	}

	off := newTracer(false)
	if id := off.begin(true, "core.step", 0, 1, ""); id != 0 {
		t.Errorf("disabled tracer handed out span %d", id)
	}
	off.end(0)
}
