package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"gomd/internal/atom"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/harness"
	"gomd/internal/pair"
	"gomd/internal/serve"
	"gomd/internal/workload"
)

// The serve-poisson job: a small checkpointed LJ run, so admission, the
// journal fsync, supervisor start, checkpoints and the status API are a
// large share of each job.
const (
	serveAtoms     = 500
	serveSteps     = 100
	serveCkptEvery = 50
	serveKeep      = 2 // mdserve's default generation count
	serveThermo    = 10
	// serveRate is the offered load in jobs/s, fixed at about half the
	// capacity measured on a 2-CPU host with a 2-slot budget (about 21
	// jobs/s).
	serveRate = 10.0
	// seedPool distinct job inputs; each job draws one, and each input is
	// also run directly, referenceRepeats times, as the reference for its
	// jobs' results.
	seedPool = 8
	// pollInterval is the job-list polling period, and so the resolution
	// of every latency observed through the API.
	pollInterval = 10 * time.Millisecond
	serveSetups  = 3
	// drainWait bounds how long accepted jobs may take to finish after
	// the last arrival before they count as failed.
	drainWait = 60 * time.Second
)

// arrival is one open-loop submission: when it is due (from the start
// of the arrival window) and which job input it submits.
type arrival struct {
	due  time.Duration
	seed uint64
}

// gapOrderSeed fixes the order of the inter-arrival gaps; see schedule.
const gapOrderSeed = 1

// schedule makes the arrivals before the run: n = round(rate x window)
// open-loop arrivals with exponential inter-arrival gaps, each
// submitting one of seedPool job inputs. Every seed replays the same
// trace of gaps: the n exponential quantiles at (i+0.5)/n, in one fixed
// shuffled order, scaled to end at the window. The seed picks where in
// that cyclic trace the window starts and which input each arrival
// submits. So every seed offers the same load with the same bursts. On
// a 2-CPU host, when each seed shuffled the gaps its own way, two seeds
// differed by a fifth in job_ms_p90 over three runs each, while the runs
// of one seed differed by a tenth.
func schedule(seed uint64, window time.Duration, rate float64) (arrivals []arrival, pool []uint64) {
	rng := rand.New(rand.NewSource(int64(subSeed(seed, 4) >> 1)))
	for i := 0; i < seedPool; i++ {
		pool = append(pool, 1+uint64(rng.Int63n(1<<40)))
	}
	n := int(rate*window.Seconds() + 0.5)
	gaps := make([]float64, n)
	sum := 0.0
	for i := range gaps {
		gaps[i] = -math.Log(1 - (float64(i)+0.5)/float64(n))
		sum += gaps[i]
	}
	rand.New(rand.NewSource(gapOrderSeed)).Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	start := rng.Intn(n)
	t := 0.0
	for i := range gaps {
		t += gaps[(start+i)%n]
		arrivals = append(arrivals, arrival{
			due:  time.Duration(t / sum * float64(window)),
			seed: pool[rng.Intn(seedPool)],
		})
	}
	return arrivals, pool
}

func jobSpec(name string, seed uint64) serve.JobSpec {
	return serve.JobSpec{Name: name, Workload: string(workload.LJ), Atoms: serveAtoms,
		Steps: serveSteps, CheckpointEvery: serveCkptEvery, ThermoEvery: serveThermo,
		KeepCheckpoints: serveKeep, Seed: seed}
}

// daemon is one cmd/mdserve process (built from source next to the
// benchmark binary), so the service has its own runtime and the
// benchmark's clients do not share its scheduler or garbage collector.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	done    chan error
	exited  bool
	waitErr error
	stderr  bytes.Buffer
	// peakKiB is raised to the process's peak RSS when it exits. (run.sh
	// execs gomdbench after building it, so RUSAGE_CHILDREN would also
	// count the compiler.)
	peakKiB *int64
}

// mdserveBin is the cmd/mdserve binary run.sh builds beside gomdbench.
func mdserveBin() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Join(filepath.Dir(self), "mdserve"), nil
}

// startDaemon starts mdserve on dir with a slot budget and unlimited
// queues (a refusal would be a failed operation), and returns once it
// listens, with the time from process start to listening (journal
// replay included).
func startDaemon(dir string, slots int, peakKiB *int64) (*daemon, time.Duration, error) {
	bin, err := mdserveBin()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	d := &daemon{done: make(chan error, 1), peakKiB: peakKiB}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data", dir,
		"-slot-budget", strconv.Itoa(slots), "-max-queue", "0", "-max-queue-tenant", "0")
	d.cmd.Stderr = &d.stderr
	// Should the benchmark itself be killed, the daemon dies with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	deadline := t0.Add(drainWait)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.base = "http://" + string(b)
			return d, time.Since(t0), nil
		}
		select {
		case err := <-d.done:
			d.exited, d.waitErr = true, err
			return nil, 0, fmt.Errorf("mdserve exited before listening (%v): %s", err, d.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("mdserve did not listen within %s", drainWait)
		}
	}
}

// wait waits for the process to exit and returns how it ended.
func (d *daemon) wait() error {
	if !d.exited {
		d.waitErr = <-d.done
		d.exited = true
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			*d.peakKiB = max(*d.peakKiB, ru.Maxrss)
		}
	}
	return d.waitErr
}

// stop sends SIGTERM (mdserve drains: running jobs park at their next
// checkpoint boundary) and waits for the process to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	t := time.AfterFunc(drainWait, func() { _ = d.cmd.Process.Kill() })
	defer t.Stop()
	if err := d.wait(); err != nil {
		return fmt.Errorf("mdserve: %v: %s", err, d.stderr.String())
	}
	return nil
}

// kill ends the process if it still runs and waits for it; error paths
// use it so no daemon outlives the benchmark.
func (d *daemon) kill() {
	if d == nil || d.exited {
		return
	}
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	_ = d.wait()
}

// client speaks the mdserve HTTP API.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
}

func (c *client) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (c *client) list() ([]serve.JobStatus, error) {
	var js []serve.JobStatus
	code, err := c.do("GET", "/api/v1/jobs", nil, &js)
	if err == nil && code != 200 {
		err = fmt.Errorf("list: HTTP %d", code)
	}
	return js, err
}

func (c *client) submit(spec serve.JobSpec) (string, int, error) {
	var ack struct{ ID string }
	code, err := c.do("POST", "/api/v1/jobs", spec, &ack)
	return ack.ID, code, err
}

func (c *client) result(id string) (serve.State, *serve.Result, error) {
	var out struct {
		State  serve.State
		Result *serve.Result
	}
	code, err := c.do("GET", "/api/v1/jobs/"+id+"/result", nil, &out)
	if err == nil && code != 200 {
		err = fmt.Errorf("result %s: HTTP %d", id, code)
	}
	return out.State, out.Result, err
}

// observed is what polling the job list saw of one job.
type observed struct {
	running, firstFrame, end time.Time
	state                    serve.State
}

// poller polls the job list every pollInterval and keeps, per job, the
// first time it was seen running, past step 0, and terminal.
type poller struct {
	c      *client
	tr     *tracer
	parent int
	mu     sync.Mutex
	seen   map[string]*observed
	listMs []float64
	err    error
}

func (p *poller) run(ctx context.Context) {
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		sp := p.tr.begin(true, "serve.list", p.parent, -1, "")
		t0 := time.Now()
		js, err := p.c.list()
		now := time.Now()
		p.tr.end(sp)
		p.mu.Lock()
		if err != nil {
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
			continue
		}
		p.listMs = append(p.listMs, ms(now.Sub(t0)))
		for _, j := range js {
			o := p.seen[j.ID]
			if o == nil {
				o = &observed{}
				p.seen[j.ID] = o
			}
			if j.State != serve.StateQueued && o.running.IsZero() {
				o.running = now
			}
			if j.Step > 0 && o.firstFrame.IsZero() {
				o.firstFrame = now
			}
			if j.State.Terminal() && o.end.IsZero() {
				o.end, o.state = now, j.State
			}
		}
		p.mu.Unlock()
	}
}

// allTerminal reports whether every id has been seen terminal.
func (p *poller) allTerminal(ids []string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if o := p.seen[id]; o == nil || o.end.IsZero() {
			return false
		}
	}
	return true
}

// sent is one arrival's submission record.
type sent struct {
	start, ack time.Time
	id         string
	code       int
	err        error
}

func runServe(c *runCtx) (*report, error) {
	r := newReport()
	root := c.tr.begin(true, "bench.run", 0, -1, "")
	defer c.tr.end(root)
	slots := runtime.NumCPU()
	// The arrival window is twice --seconds: a shorter one left too few
	// jobs for job_ms_p90 to be steady between runs.
	arrivalWindow := 2 * c.seconds
	arrivals, pool := schedule(c.seed, arrivalWindow, serveRate)

	// Set-up: start a daemon on an empty data directory, wait until it
	// answers, and run one warm-up job through it. The last one serves
	// the window.
	var setups []float64
	var peakKiB int64 // the largest daemon's peak RSS
	var d *daemon
	defer func() { d.kill() }() // error paths: no daemon outlives the run
	dataDir := ""
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		dataDir = filepath.Join(c.dir, fmt.Sprintf("serve-%d", i))
		t0 := time.Now()
		sp := c.tr.begin(true, "serve.start", root, -1, "")
		var err error
		d, _, err = startDaemon(dataDir, slots, &peakKiB)
		if err == nil {
			err = warmUp(newClient(d.base, 1), pool[0])
		}
		c.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))

	// The arrival window: one dispatcher releases each arrival at its due
	// time to a fixed set of senders; a poller watches the job list.
	// Connections: senders + 1 poller <= nproc.
	senders := max(1, slots-1)
	sc := newClient(d.base, senders)
	pc := newClient(d.base, 1)
	window := c.tr.begin(true, "bench.window", root, -1, "")
	p := &poller{c: pc, tr: c.tr, parent: window, seen: map[string]*observed{}}
	ctx, cancel := context.WithCancel(context.Background())
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() { defer pwg.Done(); p.run(ctx) }()

	recs := make([]sent, len(arrivals))
	jobSpans := make([]int, len(arrivals))
	work := make(chan int)
	var swg sync.WaitGroup
	for s := 0; s < senders; s++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for i := range work {
				name := fmt.Sprintf("bench-%d", i)
				sp := c.tr.begin(jobSpans[i] != 0, "serve.submit", jobSpans[i], -1, name)
				recs[i].start = time.Now()
				recs[i].id, recs[i].code, recs[i].err = sc.submit(jobSpec(name, arrivals[i].seed))
				recs[i].ack = time.Now()
				c.tr.end(sp)
			}
		}()
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	for i, a := range arrivals {
		time.Sleep(time.Until(t0.Add(a.due)))
		if c.traced && (i/traceBlock)%2 == 1 {
			// The job span is filled in once its end is observed; opening it
			// here gives the submit span its parent.
			jobSpans[i] = c.tr.begin(true, "serve.job", window, -1, fmt.Sprintf("bench-%d", i))
			c.tr.setTrack(jobSpans[i], 100+i)
		}
		work <- i
	}
	close(work)
	swg.Wait()

	var ids []string
	for _, s := range recs {
		if s.err == nil && s.code == http.StatusAccepted {
			ids = append(ids, s.id)
		}
	}
	deadline := time.Now().Add(drainWait)
	for !p.allTerminal(ids) && time.Now().Before(deadline) {
		time.Sleep(pollInterval)
	}
	cancel()
	pwg.Wait()
	c.tr.end(window)
	if p.err != nil {
		return nil, p.err
	}

	// Per-job latencies, timed from the due time.
	var jobMs, firstMs, submitMs, queueMs, runMs, lateMs, tracedJob, untracedJob []float64
	var lastDone time.Time
	refused, failed, done := 0, 0, 0
	states := map[string]serve.State{}
	for i, s := range recs {
		due := t0.Add(arrivals[i].due)
		lateMs = append(lateMs, ms(s.start.Sub(due)))
		if s.err != nil || s.code != http.StatusAccepted {
			refused++
			continue
		}
		submitMs = append(submitMs, ms(s.ack.Sub(s.start)))
		o := p.seen[s.id]
		if o == nil || o.end.IsZero() {
			failed++
			c.tr.end(jobSpans[i])
			continue
		}
		states[s.id] = o.state
		if o.state != serve.StateDone {
			failed++
			c.tr.end(jobSpans[i])
			continue
		}
		done++
		if o.end.After(lastDone) {
			lastDone = o.end
		}
		jm := ms(o.end.Sub(due))
		jobMs = append(jobMs, jm)
		if !o.firstFrame.IsZero() {
			firstMs = append(firstMs, ms(o.firstFrame.Sub(due)))
		}
		if !o.running.IsZero() {
			queueMs = append(queueMs, ms(o.running.Sub(s.ack)))
			runMs = append(runMs, ms(o.end.Sub(o.running)))
		}
		if jobSpans[i] != 0 {
			c.tr.endAt(jobSpans[i], o.end)
			tracedJob = append(tracedJob, jm)
		} else {
			untracedJob = append(untracedJob, jm)
		}
	}
	r.attempted += len(arrivals)
	r.failed += refused + failed
	span := lastDone.Sub(t0).Seconds()
	r.set("job_ms_p50", median(jobMs), len(jobMs))
	r.set("job_ms_p90", percentile(jobMs, 0.9), len(jobMs))
	r.set("first_frame_ms_p50", median(firstMs), len(firstMs))
	r.set("jobs_per_s", float64(done)/span, done)
	r.set("serve.submit_ms_p50", median(submitMs), len(submitMs))
	r.set("serve.queue_ms_p50", median(queueMs), len(queueMs))
	r.set("serve.run_ms_p50", median(runMs), len(runMs))
	r.set("serve.list_ms_p50", median(p.listMs), len(p.listMs))
	r.set("serve.rejected_frac", float64(refused)/float64(len(arrivals)), len(arrivals))
	if c.traced {
		r.set("trace.overhead_job_ms_p50", median(tracedJob)-median(untracedJob), len(tracedJob))
	}
	r.note("open loop: %d arrivals at %.1f jobs/s over %s, %d sender connection(s) + 1 poller",
		len(arrivals), serveRate, arrivalWindow, senders)
	r.note("jobs: sent=%d accepted=%d refused=%d failed=%d done=%d", len(arrivals), len(ids), refused, failed, done)
	r.note("generator lateness: p50=%.3f ms p99=%.3f ms max=%.3f ms",
		median(lateMs), percentile(lateMs, 0.99), percentile(lateMs, 1))
	r.note("latency resolution: job-list poll every %s (%d polls)", pollInterval, len(p.listMs))

	// Results, fetched before the daemon stops; compared below with the
	// direct runs of the same inputs.
	frames := map[string]*serve.Frame{}
	finals := map[string]serve.State{}
	for _, s := range recs {
		if s.err != nil || s.code != http.StatusAccepted {
			continue
		}
		sp := c.tr.begin(true, "serve.result", root, -1, s.id)
		state, res, err := pc.result(s.id)
		c.tr.end(sp)
		if err != nil {
			return nil, err
		}
		finals[s.id] = state
		if res != nil {
			frames[s.id] = res.Final
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	jb, err := fileSize(filepath.Join(dataDir, "serve.journal"))
	if err != nil {
		return nil, err
	}
	r.set("serve.journal_bytes", jb, 1)

	// Reference runs and restarts, interleaved so both see the same mix
	// of host load. Each input runs referenceRepeats times, which also
	// checks that a direct run is deterministic.
	ref := &referenceRuns{c: c, r: r, root: root, refs: map[uint64]serve.Frame{}}
	rst := &restarts{c: c, dataDir: dataDir, slots: slots, root: root, peakKiB: &peakKiB}
	for k := 0; k < referenceRepeats*len(pool); k++ {
		seed := pool[k%len(pool)]
		if err := ref.run(k, seed, k == referenceRepeats*len(pool)-1); err != nil {
			return nil, err
		}
		for i := 0; i < restartsPerReference; i++ {
			if err := rst.sample(fmt.Sprintf("restart-%d-%d", k, i), seed, ref.refs[seed]); err != nil {
				return nil, err
			}
		}
		runtime.GC()
	}
	ref.report()
	rst.report(r)

	// Every accepted job must be done with the final frame of a direct
	// Supervisor run of its input.
	var wrong error
	nWrong := 0
	for i, s := range recs {
		if s.err != nil || s.code != http.StatusAccepted {
			continue
		}
		if err := checkJob(s.id, finals[s.id], frames[s.id], ref.refs[arrivals[i].seed]); err != nil {
			if states[s.id] == serve.StateDone {
				nWrong++ // not-done jobs already count as failed
			}
			if wrong == nil {
				wrong = err
			}
		}
	}
	r.failed += nWrong
	r.check("jobs_done_match_direct_run", wrong)
	// The service's delivered simulation throughput (the reference runs
	// set the engine's own ts_per_s above; this replaces it).
	r.set("ts_per_s", float64(done*serveSteps)/span, done)
	r.set("max_rss_mb", max(maxRSSMB(), float64(peakKiB)/1024), 1)
	return r, nil
}

// ckptReads is how many times the last reference run's newest
// generation is read for ckpt.read_ms.
const ckptReads = 10

// Each job input runs referenceRepeats times directly, and
// restartsPerReference restart samples follow every reference run.
const (
	referenceRepeats     = 3
	restartsPerReference = 2
)

// restarts measures the daemon's restore: a job is submitted, the
// daemon is drained while the job runs (it parks at its next checkpoint
// boundary, "running" in the journal), and a new daemon is started on
// the same data directory. restore_s is the time from that start until
// the job's status shows it running again from its checkpoint; the
// resumed job must then finish with the direct run's final frame.
type restarts struct {
	c        *runCtx
	dataDir  string
	slots    int
	root     int
	replays  []float64
	restores []float64
	wrong    error
	peakKiB  *int64
}

func (rs *restarts) sample(name string, seed uint64, want serve.Frame) error {
	d, _, err := startDaemon(rs.dataDir, rs.slots, rs.peakKiB)
	if err != nil {
		return err
	}
	defer d.kill()
	cl := newClient(d.base, 1)
	id, code, err := cl.submit(jobSpec(name, seed))
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("restart job refused: HTTP %d", code)
	}
	if err == nil {
		_, err = waitJob(cl, id, func(j serve.JobStatus) bool { return j.Step > 0 })
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	sp := rs.c.tr.begin(true, "serve.restart", rs.root, -1, id)
	t0 := time.Now()
	d2, replay, err := startDaemon(rs.dataDir, rs.slots, rs.peakKiB)
	if err != nil {
		rs.c.tr.end(sp)
		return err
	}
	defer d2.kill()
	cl = newClient(d2.base, 1)
	j, err := waitJob(cl, id, func(j serve.JobStatus) bool {
		return j.State.Terminal() || (j.State == serve.StateRunning && j.Step >= serveCkptEvery)
	})
	restore := time.Since(t0)
	rs.c.tr.end(sp)
	resumed := err == nil && !j.State.Terminal()
	if err == nil {
		j, err = waitJob(cl, id, func(j serve.JobStatus) bool { return j.State.Terminal() })
	}
	var frame *serve.Frame
	if err == nil {
		var res *serve.Result
		j.State, res, err = cl.result(id)
		if res != nil {
			frame = res.Final
		}
	}
	if serr := d2.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if cerr := checkJob(id, j.State, frame, want); cerr != nil && rs.wrong == nil {
		rs.wrong = cerr
	}
	// A job that finished before the drain reached it resumed nothing;
	// its restart is not a sample.
	if resumed {
		rs.replays = append(rs.replays, ms(replay))
		rs.restores = append(rs.restores, restore.Seconds())
	}
	return nil
}

func (rs *restarts) report(r *report) {
	r.check("restarted_jobs_match_direct_run", rs.wrong)
	r.attempted += len(rs.restores)
	r.set("serve.replay_ms", median(rs.replays), len(rs.replays))
	r.set("restore_s", median(rs.restores), len(rs.restores))
}

// waitJob polls one job's status every millisecond until cond holds.
func waitJob(c *client, id string, cond func(serve.JobStatus) bool) (serve.JobStatus, error) {
	deadline := time.Now().Add(drainWait)
	for time.Now().Before(deadline) {
		var j serve.JobStatus
		code, err := c.do("GET", "/api/v1/jobs/"+id, nil, &j)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %s: HTTP %d", id, code)
		}
		if err != nil {
			return j, err
		}
		if cond(j) {
			return j, nil
		}
		time.Sleep(time.Millisecond)
	}
	return serve.JobStatus{}, fmt.Errorf("job %s: no progress within %s", id, drainWait)
}

// warmUp runs one job through the API to completion.
func warmUp(c *client, seed uint64) error {
	id, code, err := c.submit(jobSpec("warm-up", seed))
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("warm-up job refused: HTTP %d", code)
	}
	if err != nil {
		return err
	}
	j, err := waitJob(c, id, func(j serve.JobStatus) bool { return j.State.Terminal() })
	if err == nil && j.State != serve.StateDone {
		err = fmt.Errorf("warm-up job ended %s: %s", j.State, j.Detail)
	}
	return err
}

// referenceRuns runs job inputs directly under harness.Supervisor, as
// mdserve runs a job, timing each step. The final frames are the
// expected job results; the steps give the serve-poisson step metrics;
// the last run gives the layer counters and kernel timings.
type referenceRuns struct {
	c                   *runCtx
	r                   *report
	root                int
	refs                map[uint64]serve.Frame
	steps               timedSteps
	builds, news, reads []float64
	runs                int
	mismatch            error
}

func (rr *referenceRuns) run(k int, seed uint64, last bool) error {
	c := rr.c
	dir := filepath.Join(c.dir, fmt.Sprintf("reference-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var bt time.Duration
	sp := c.tr.begin(true, "core.new", rr.root, -1, "reference")
	sup := &harness.Supervisor{
		Factory: func() (core.Config, *atom.Store, error) {
			t0 := time.Now()
			ws := c.tr.begin(true, "workload.build", sp, -1, "reference")
			cfg, st, err := workload.Build(workload.LJ, workload.Options{Atoms: serveAtoms,
				Precision: pair.Double, Seed: seed, ThermoEvery: serveThermo})
			c.tr.end(ws)
			cfg.Workers = 1
			bt += time.Since(t0)
			return cfg, st, err
		},
		Ranks: 1, CheckpointEvery: serveCkptEvery, KeepCheckpoints: serveKeep,
		CheckpointPath: filepath.Join(dir, "job.ckpt"),
	}
	t0 := time.Now()
	err := sup.Start()
	c.tr.end(sp)
	if err != nil {
		return err
	}
	e := supEngine{sup}
	defer e.close()
	rr.builds = append(rr.builds, ms(bt))
	rr.news = append(rr.news, ms(time.Since(t0)-bt))
	before := takeSnapshot(e)
	for i := 0; i < serveSteps; i++ {
		if err := rr.steps.step(c, e, serveCkptEvery, "core", rr.root, "reference"); err != nil {
			return err
		}
	}
	th, err := e.thermo()
	if err != nil {
		return err
	}
	if prev, ok := rr.refs[seed]; ok && rr.mismatch == nil {
		rr.mismatch = checkJob("reference", serve.StateDone, &prev, frameOf(th))
	}
	rr.refs[seed] = frameOf(th)
	rr.runs++
	rr.r.attempted += serveSteps
	if !last {
		return nil
	}
	rr.r.setLayerCounters(before, takeSnapshot(e), 1)
	path := filepath.Join(dir, "job.ckpt")
	for i := 0; i < ckptReads; i++ {
		rs := c.tr.begin(true, "ckpt.read", rr.root, -1, "")
		t := time.Now()
		_, _, _, err := ckpt.ReadNewestValid(path, serveKeep)
		rr.reads = append(rr.reads, ms(time.Since(t)))
		c.tr.end(rs)
		if err != nil {
			return err
		}
	}
	bytes, err := fileSize(path)
	if err != nil {
		return err
	}
	rr.r.set("ckpt.bytes_per_gen", bytes, 1)
	return kernelTimings(c, rr.r, e, rr.root)
}

func (rr *referenceRuns) report() {
	r := rr.r
	r.check("reference_runs_identical", rr.mismatch)
	all := rr.steps.all()
	r.setStepMetrics(&all)
	r.set("ckpt.gen_ms", median(all[ckptStep])-median(all[rebuildStep]), len(all[ckptStep]))
	r.set("ckpt.read_ms", median(rr.reads), len(rr.reads))
	r.set("workload.build_ms", median(rr.builds), len(rr.builds))
	r.set("core.new_ms", median(rr.news), len(rr.news))
	if rr.c.traced {
		rr.steps.setOverhead(r)
	}
	r.note("step metrics come from %d direct Supervisor runs of %d job inputs", rr.runs, len(rr.refs))
}
