package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gomd/internal/obs"
)

// span is one interval the benchmark recorded around a call into a
// module. The layer is the part of Name before the first '.'.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Time
	Step       int64 // -1 when the span is not about one step
	Job        string
	Track      int // trace-viewer row; concurrent jobs get their own
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// (on == false) records nothing and hands out span ID 0, so call sites
// need no branches. Safe for concurrent use: the serve workload records
// from its sender and poller goroutines.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its ID (0 when disabled or when the
// caller asked for an untraced span by passing enabled == false).
func (t *tracer) begin(enabled bool, name string, parent int, step int64, job string) int {
	if !t.on || !enabled {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Now(), Step: step, Job: job})
	return len(t.spans)
}

// end closes span id (a no-op for ID 0).
func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// endAt closes span id at t: a job span ends when the poller saw the
// job finish, not when the benchmark got round to it.
func (t *tracer) endAt(id int, at time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// rename renames span id: a step span learns its class only after the
// step ran.
func (t *tracer) rename(id int, name string) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// setTrack moves span id to trace-viewer row track.
func (t *tracer) setTrack(id, track int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Track = track
	t.mu.Unlock()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in milliseconds: the summed
// duration of its spans minus the part of each span its child spans
// cover. Spans left open are ignored.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && !s.End.IsZero() {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		self := s.End.Sub(s.Start) - covered(s.Start, s.End, children[s.ID])
		out[layerOf(s.Name)] += ms(self)
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to [start, end].
func covered(start, end time.Time, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeChrome exports the spans in the Chrome trace-event format the
// engine's own tracer (internal/obs) writes, so the same viewers open
// it. Each event's args carry the span ID, its parent, and the step or
// job it belongs to.
func (t *tracer) writeChrome(path string) error {
	spans := t.snapshot()
	events := []obs.TraceEvent{{Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "gomdbench"}}}
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "layer": layerOf(s.Name)}
		if s.Step >= 0 {
			args["step"] = s.Step
		}
		if s.Job != "" {
			args["job"] = s.Job
		}
		events = append(events, obs.TraceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Tid: s.Track, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(obs.TraceFile{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setSelfTimes records every span layer's self time.
func (r *report) setSelfTimes(t *tracer) {
	st := selfTimes(t.snapshot())
	for _, l := range spanLayers {
		r.set(l+".self_ms", st[l], 1)
	}
}
