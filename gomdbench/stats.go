package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the closest ranks; NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stepClass splits timesteps by the work they do, because step time is
// multimodal: a percentile over all steps would jump between modes
// whenever a trajectory change shifted the rebuild count by one.
type stepClass int

const (
	ordinaryStep stepClass = iota
	rebuildStep            // the neighbor list was rebuilt
	ckptStep               // a checkpoint generation was written (always a rebuild too)
	numStepClasses
)

var stepClassNames = [numStepClasses]string{"ordinary", "rebuild", "checkpoint"}

// classify names the step that advanced the run to stepAfter. A run
// with checkpointEvery > 0 writes a generation at every multiple of it,
// and checkpoint steps force a rebuild, so that class wins; otherwise a
// step whose NeighBuilds counter advanced is a rebuild step.
func classify(stepAfter int64, checkpointEvery int, buildsBefore, buildsAfter int64) stepClass {
	switch {
	case checkpointEvery > 0 && stepAfter%int64(checkpointEvery) == 0:
		return ckptStep
	case buildsAfter > buildsBefore:
		return rebuildStep
	default:
		return ordinaryStep
	}
}

// stepLog holds per-class step wall times in milliseconds.
type stepLog [numStepClasses][]float64

func (l *stepLog) add(c stepClass, d time.Duration) { l[c] = append(l[c], ms(d)) }

func (l *stepLog) merge(o *stepLog) {
	for c := range l {
		l[c] = append(l[c], o[c]...)
	}
}

// count is the number of steps logged.
func (l *stepLog) count() int {
	n := 0
	for _, xs := range l {
		n += len(xs)
	}
	return n
}

// total is the summed wall time of the logged steps in milliseconds.
func (l *stepLog) total() float64 {
	t := 0.0
	for _, xs := range l {
		for _, x := range xs {
			t += x
		}
	}
	return t
}

// setStepMetrics records the step-time metrics of a log: throughput,
// ordinary-step percentiles and the rebuild-step median.
func (r *report) setStepMetrics(l *stepLog) {
	n := l.count()
	r.set("ts_per_s", float64(n)/(l.total()/1e3), n)
	r.set("step_ms_p50", median(l[ordinaryStep]), len(l[ordinaryStep]))
	r.set("step_ms_p90", percentile(l[ordinaryStep], 0.9), len(l[ordinaryStep]))
	r.set("rebuild_step_ms_p50", median(l[rebuildStep]), len(l[rebuildStep]))
	for c, xs := range l {
		if len(xs) > 0 {
			r.note("steps %-10s n=%-5d p50=%.3f ms  p90=%.3f ms  max=%.3f ms",
				stepClassNames[c], len(xs), median(xs), percentile(xs, 0.9), percentile(xs, 1))
		}
	}
}

// tsPerSMix is the throughput of the steps in l with each class weighted
// by its share of mix. Traced and untraced steps then compare like for
// like even when the periodic rebuild and checkpoint steps fall unevenly
// into one of them; a class l lacks takes its time from mix.
func tsPerSMix(l, mix *stepLog) float64 {
	total := 0.0
	for c := range mix {
		src := l[c]
		if len(src) == 0 {
			src = mix[c]
		}
		sum := 0.0
		for _, x := range src {
			sum += x
		}
		if len(src) > 0 {
			total += float64(len(mix[c])) * sum / float64(len(src))
		}
	}
	return float64(mix.count()) / (total / 1e3)
}
