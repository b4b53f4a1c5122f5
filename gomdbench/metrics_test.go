package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark prints, with the same units and directions.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", listed, names)
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, benchmark prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i := range bf.EndToEnd {
		if i >= len(endToEnd) {
			break
		}
		got, want := bf.EndToEnd[i], endToEnd[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, benchmark prints %s/%s/%s",
				i, got.Name, got.Unit, got.Better, want.Name, want.Unit, want.Better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	setupBound := 0.0
	maxBound := 0.0
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, benchmark prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i := range bf.PerLayer {
		if i < len(perLayer) && bf.PerLayer[i] != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, bf.PerLayer[i], perLayer[i])
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// fullReport has every given metric set.
func fullReport(defs []metricDef) *report {
	r := newReport()
	for i, d := range defs {
		r.set(d.Name, float64(i)+0.5, 3)
	}
	return r
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}

// Each mode prints exactly its metric set on the last line, every
// metric with its unit, and every measured value with its sample count
// on the lines before.
func TestEmitPrintsEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		r := fullReport(append(append([]metricDef{}, endToEnd...), perLayer...))
		r.attempted = 5
		r.check("ok", nil)
		var b strings.Builder
		if err := emit(&b, r, traced); err != nil {
			t.Fatal(err)
		}
		res := lastResult(t, b.String())
		if !res.Correct || res.Attempted != 6 || res.Failed != 0 {
			t.Errorf("traced=%v: result %+v", traced, res)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics printed, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s printed as %+v (present %v), want unit %s", traced, d.Name, m, ok, d.Unit)
			}
			if !strings.Contains(b.String(), "# "+d.Name+" ") {
				t.Errorf("traced=%v: %s missing from the readable report", traced, d.Name)
			}
		}
	}
}

func TestEmitRefusesMissingMetric(t *testing.T) {
	r := fullReport(endToEnd[1:])
	r.attempted = 1
	var b strings.Builder
	if err := emit(&b, r, false); err == nil || !strings.Contains(err.Error(), endToEnd[0].Name) {
		t.Errorf("emit with %s missing: err = %v", endToEnd[0].Name, err)
	}
	if b.Len() != 0 {
		t.Errorf("emit printed a result without every metric:\n%s", b.String())
	}
}
