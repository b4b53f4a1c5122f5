// Command gomdbench is gomd's end-to-end and per-layer benchmark. It
// runs one seeded workload against gomd's public APIs, checks the
// outputs, and prints every metric by name with its unit; the last line
// of standard output is a JSON result. See README.md.
//
//	gomdbench --workload lj-serial --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// records spans around the benchmark's calls into each module, writes
// them to .bench_build/traces/ in Chrome trace-event format and reports
// the per-layer metrics, each layer's self time and the tracing
// overhead. Exit status: 0 when every check passed, 1 when a check
// failed (the result line says correct=false), 2 when the run could not
// complete (no result line).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner. BENCHMARK.json
// lists the same names.
var workloads = map[string]func(*runCtx) (*report, error){
	"lj-serial":     func(c *runCtx) (*report, error) { return runSim(c, ljWorkload()) },
	"chain-ckpt":    func(c *runCtx) (*report, error) { return runSim(c, chainWorkload()) },
	"rhodo-2rank":   func(c *runCtx) (*report, error) { return runSim(c, rhodoWorkload()) },
	"serve-poisson": runServe,
}

// workDir holds everything a run writes, relative to the repository
// root the benchmark runs from.
const workDir = ".bench_build"

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: gomdbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "gomdbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gomdbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	c := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, tr: newTracer(*trace == 1), dir: dir}
	start := time.Now()
	r, err := runner(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gomdbench: %s: %v\n", *name, err)
		return 2
	}
	r.note("workload %s seed %d: run took %.1f s", *name, *seed, time.Since(start).Seconds())
	if c.traced {
		r.setSelfTimes(c.tr)
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := c.tr.writeChrome(path); err != nil {
			fmt.Fprintln(os.Stderr, "gomdbench: writing trace:", err)
			return 2
		}
		r.note("trace: %s", path)
	}
	if err := emit(os.Stdout, r, c.traced); err != nil {
		fmt.Fprintln(os.Stderr, "gomdbench:", err)
		return 2
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// maxRSSMB is this process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
