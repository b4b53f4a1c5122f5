package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. The lists below are the single
// source of truth for what a run prints; BENCHMARK.json at the
// repository root must list the same names, units and directions
// (metrics_test.go checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of gomd sees. Every workload measures every
// one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"ts_per_s", "steps/s", "higher"},
	{"step_ms_p50", "ms", "lower"},
	{"step_ms_p90", "ms", "lower"},
	{"rebuild_step_ms_p50", "ms", "lower"},
	{"restore_s", "s", "lower"},
	{"job_ms_p50", "ms", "lower"},
	{"job_ms_p90", "ms", "lower"},
	{"first_frame_ms_p50", "ms", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// spanLayers are the modules the traced run records spans around; each
// gets a "<layer>.self_ms" metric. "domain" covers domain/mpi: the
// benchmark reaches the message-passing runtime only through the
// decomposed engine.
var spanLayers = []string{"workload", "core", "pair", "neighbor", "kspace", "par", "domain", "ckpt", "serve"}

// perLayer is what the traced run reports. A layer a workload does not
// exercise reads 0.
var perLayer = append([]metricDef{
	{"workload.build_ms", "ms", "lower"},
	{"core.new_ms", "ms", "lower"},
	{"core.pair_ms_per_step", "ms", "lower"},
	{"core.neigh_ms_per_step", "ms", "lower"},
	{"core.kspace_ms_per_step", "ms", "lower"},
	{"core.comm_ms_per_step", "ms", "lower"},
	{"core.modify_ms_per_step", "ms", "lower"},
	{"core.bond_ms_per_step", "ms", "lower"},
	{"pair.compute_ms", "ms", "lower"},
	{"pair.ns_per_pair", "ns", "lower"},
	{"pair.pairs_per_atom", "count", "lower"},
	{"neighbor.build_ms", "ms", "lower"},
	{"neighbor.builds_per_100_steps", "count", "lower"},
	{"neighbor.useful_frac", "fraction", "higher"},
	{"kspace.compute_ms", "ms", "lower"},
	{"kspace.fft_ops_per_step", "count", "lower"},
	{"par.util", "fraction", "higher"},
	{"mpi.wait_ms_per_step", "ms", "lower"},
	{"mpi.bytes_per_step", "B", "lower"},
	{"mpi.msgs_per_step", "count", "lower"},
	{"domain.ghost_atoms_per_step", "count", "lower"},
	{"ckpt.gen_ms", "ms", "lower"},
	{"ckpt.bytes_per_gen", "B", "lower"},
	{"ckpt.read_ms", "ms", "lower"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.queue_ms_p50", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.list_ms_p50", "ms", "lower"},
	{"serve.rejected_frac", "fraction", "lower"},
	{"serve.replay_ms", "ms", "lower"},
	{"serve.journal_bytes", "B", "lower"},
	{"trace.overhead_ts_per_s", "steps/s", "lower"},
	{"trace.overhead_job_ms_p50", "ms", "lower"},
}, selfTimeDefs()...)

func selfTimeDefs() []metricDef {
	out := make([]metricDef, len(spanLayers))
	for i, l := range spanLayers {
		out[i] = metricDef{l + ".self_ms", "ms", "lower"}
	}
	return out
}

// report accumulates one run's measurements, correctness checks and
// operation counts.
type report struct {
	values  map[string]float64
	samples map[string]int
	notes   []string
	checks  []checkResult
	// attempted/failed count operations: timesteps, jobs and
	// correctness checks.
	attempted, failed int
}

type checkResult struct {
	Name string
	Err  error
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric measured from n samples (n = 1 for a single
// measurement).
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// check records one correctness check; a failed check is a failed
// operation.
func (r *report) check(name string, err error) {
	r.checks = append(r.checks, checkResult{name, err})
	r.attempted++
	if err != nil {
		r.failed++
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed.
func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.Err != nil {
			return false
		}
	}
	return len(r.checks) > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the human-readable report (every measured value with its
// unit and sample count, the checks, the notes) and, as the last line,
// the JSON result: the end-to-end metrics, or the per-layer ones when
// traced. It fails without printing the JSON line when a metric the
// mode must report was not measured.
func emit(w io.Writer, r *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}

	var b strings.Builder
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "# %-32s %14.6g %-9s n=%d\n", n, r.values[n], units[n], r.samples[n])
	}
	fmt.Fprintf(&b, "# %-32s %14.6g %-9s attempted=%d failed=%d\n", "failed_frac",
		float64(r.failed)/float64(r.attempted), "fraction", r.attempted, r.failed)
	for _, c := range r.checks {
		if c.Err != nil {
			fmt.Fprintf(&b, "# check %-26s FAIL: %v\n", c.Name, c.Err)
		} else {
			fmt.Fprintf(&b, "# check %-26s ok\n", c.Name)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
