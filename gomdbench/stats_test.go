package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.1, 1.4},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two samples = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name      string
		stepAfter int64
		every     int
		b0, b1    int64
		want      stepClass
	}{
		{"ordinary", 7, 0, 3, 3, ordinaryStep},
		{"rebuild", 7, 0, 3, 4, rebuildStep},
		{"two ranks rebuild", 7, 0, 6, 8, rebuildStep},
		{"checkpoint step wins over its forced rebuild", 40, 20, 3, 4, ckptStep},
		{"checkpoint step", 20, 20, 3, 3, ckptStep},
		{"off the checkpoint grid", 41, 20, 3, 4, rebuildStep},
		{"no checkpoints", 40, 0, 3, 3, ordinaryStep},
	} {
		if got := classify(tc.stepAfter, tc.every, tc.b0, tc.b1); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, stepClassNames[got], stepClassNames[tc.want])
		}
	}
}

func TestStepMetricsReportSampleCounts(t *testing.T) {
	var l stepLog
	for i := 0; i < 18; i++ {
		l.add(ordinaryStep, time.Duration(10+i%3)*time.Millisecond)
	}
	l.add(rebuildStep, 50*time.Millisecond)
	l.add(rebuildStep, 70*time.Millisecond)
	l.add(ckptStep, 200*time.Millisecond)
	r := newReport()
	r.setStepMetrics(&l)
	for name, want := range map[string]struct {
		v float64
		n int
	}{
		"step_ms_p50":         {11, 18},
		"step_ms_p90":         {12, 18},
		"rebuild_step_ms_p50": {60, 2},
		"ts_per_s":            {21 / (0.198 + 0.12 + 0.2), 21},
	} {
		if got := r.values[name]; math.Abs(got-want.v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want.v)
		}
		if r.samples[name] != want.n {
			t.Errorf("%s from %d samples, want %d", name, r.samples[name], want.n)
		}
	}
}

// Traced and untraced halves compare at the same class mix.
func TestTsPerSMix(t *testing.T) {
	var all, a, b stepLog
	for i := 0; i < 20; i++ {
		all.add(ordinaryStep, 10*time.Millisecond)
		a.add(ordinaryStep, 10*time.Millisecond)
		b.add(ordinaryStep, 10*time.Millisecond)
	}
	all.add(rebuildStep, 50*time.Millisecond)
	all.add(rebuildStep, 50*time.Millisecond)
	a.add(rebuildStep, 50*time.Millisecond)
	a.add(rebuildStep, 50*time.Millisecond) // every rebuild landed in a
	if x, y := tsPerSMix(&a, &all), tsPerSMix(&b, &all); math.Abs(x-y) > 1e-9 {
		t.Errorf("same per-class times give %v vs %v steps/s", x, y)
	}
	if got, want := tsPerSMix(&b, &all), 22/0.3; math.Abs(got-want) > 1e-9 {
		t.Errorf("tsPerSMix = %v, want %v", got, want)
	}
}
