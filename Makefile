# Tier-1 verification: build + vet + tests, then the same tests under
# the race detector (the observability layer's multi-rank tests record
# spans from every rank goroutine, so the race run is part of the bar),
# then an end-to-end mdbench smoke campaign.
.PHONY: all build vet test race bench bench-smoke bench-gate sweep-smoke serve-smoke faults soak transport-check check

all: check

build:
	go build ./...

vet:
	go vet ./...

test:
	go test -shuffle=on ./...

# The race run covers the intra-rank worker pool (internal/par) and the
# threaded pair/neighbor/PPPM kernels alongside the multi-rank MPI tests.
race:
	go test -race -shuffle=on ./...

bench:
	go test -bench=. -benchmem -run=^$$ ./...

# Short 8-rank rhodopsin campaign with a strict data log: fails if any
# engine measurement is missing from the JSONL (the trace.Logger.Err()
# path), catching end-to-end harness regressions the unit tests skip.
bench-smoke:
	go run ./cmd/mdbench -exp fig12 -quick -sizes 32 -ranks 8 \
		-log /tmp/gomd-bench-smoke.jsonl -strict-log > /dev/null
	@test -s /tmp/gomd-bench-smoke.jsonl || \
		{ echo "bench-smoke: empty data log" >&2; exit 1; }
	go run ./cmd/kbench -atoms 8000 -iters 3 -out BENCH_kernels.json > /dev/null
	@test -s BENCH_kernels.json || \
		{ echo "bench-smoke: empty BENCH_kernels.json" >&2; exit 1; }

# Kernel regression gate, trajectory-aware: regenerate
# BENCH_kernels.json with the baseline's arguments, then gate against the
# newest comparable entry in the append-only store
# (results/trajectory.jsonl) — falling back to the committed
# results/BENCH_kernels.baseline.json the first time a host runs. Each
# passing run appends a new trajectory point, so later runs compare
# against the most recent healthy state on this host instead of a
# hand-regenerated file. Arithmetic intensity is pinned tightly (it is
# model+workload determined); wall times only fail on order-of-magnitude
# blowups (host variance allowance). Regenerate the baseline with the
# same kbench arguments when a kernel or cost model intentionally
# changes.
bench-gate:
	go run ./cmd/kbench -atoms 8000 -iters 3 -out BENCH_kernels.json > /dev/null
	go run ./cmd/benchgate -baseline results/BENCH_kernels.baseline.json \
		-current BENCH_kernels.json -trajectory results/trajectory.jsonl

# Campaign-runner smoke: a quick 2x2 grid (two workloads, two rank
# counts, guardrails on, strict data log) through cmd/mdsweep. Fails on
# any lost CSV/JSONL/manifest write or incomplete data log.
sweep-smoke:
	go run ./cmd/mdsweep -workloads lj,rhodo -atoms 32 -ranks 1,4 -quick \
		-csv /tmp/gomd-sweep-smoke.csv -jsonl /tmp/gomd-sweep-smoke.jsonl \
		-manifest /tmp/gomd-sweep-smoke.json > /dev/null
	@test -s /tmp/gomd-sweep-smoke.csv || \
		{ echo "sweep-smoke: empty sweep CSV" >&2; exit 1; }
	@test -s /tmp/gomd-sweep-smoke.json || \
		{ echo "sweep-smoke: empty campaign manifest" >&2; exit 1; }

# Daemon smoke: boot cmd/mdserve on an ephemeral port, run one job
# through the HTTP API to completion, scrape /metrics, then SIGTERM-
# drain with a job running — the daemon must exit 0 with a parked
# "running" record left in the journal for the next generation.
serve-smoke:
	sh scripts/serve_smoke.sh

# Fault-tolerance suite under the race detector: abort protocol, fault
# injector, guardrails, checkpoint bit-exactness, and supervised
# recovery (including the 4-rank rhodopsin kill-and-resume scenario).
faults:
	go test -race -run 'TestFault|TestCheckpoint|TestGuardrail|TestSupervisor|TestRankAbort' \
		./internal/fault/ ./internal/ckpt/ ./internal/core/ ./internal/mpi/ ./internal/harness/

# Seeded randomized fault campaign under the race detector: three
# workloads each draw a kill plus a hang / checkpoint-flip / truncation
# from a fixed-seed stream and must recover bit-exactly, plus the
# TCP-loopback cells — TestSoakTCPLoopback (no checkpoints: rebuild at
# step 0) and TestSoakTCPCheckpointed (kill plus
# hang/corrupt-wire/truncate-shard against a two-process world that
# must restore from the newest complete shard generation). Both follow
# the one recovery rule for spanning worlds: every recovery returns
# ErrRestarted and the caller replays from the restored step.
# Deterministic, so any failure reproduces with plain `make soak`.
soak:
	go test -race -run TestSoak ./internal/harness/

# Transport layer under the race detector: the conformance suite run
# against both transports (channel and TCP loopback), wire-codec
# round-trip and framing-overhead tests, rendezvous/abort/death
# protocol tests (including the mid-handshake failure drills, which
# must surface typed RendezvousErrors within the deadline), and the
# cross-process end-to-end drills: bit identity chan vs TCP,
# supervised kill recovery with re-rendezvous, and the distributed-
# checkpoint drills (restore from the newest complete shard
# generation, mid-commit torn-generation fallback, placement swap).
transport-check:
	go test -race -run 'TestTransport|TestWire|TestFrame|TestTCP' \
		./internal/mpi/ ./internal/harness/

check: build vet test race bench-smoke bench-gate sweep-smoke serve-smoke faults soak transport-check
