GO ?= go

.PHONY: build test vet race verify verify-benchmark bench bench-batch bench-json bench-smoke trace-smoke aggregate-smoke failover-smoke overload-smoke stream-smoke crash experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full test suite under the race detector; the batched
# pipeline tests exercise concurrent AccessBatch/Access interleavings,
# parallel per-shard batch fan-out, and server shutdown draining.
race:
	$(GO) test -race ./...

# verify is the fast CI gate: static checks plus the plain test suite,
# then the same for the repository benchmark, which is a module of its
# own (benchmark/, replace ortoa => ../) that `./...` does not reach —
# so an internal rename that breaks its build against
# internal/core, transport or wire fails here, not in a benchmark run.
# -short skips its one test that deploys the tiers. The race-checked
# suite runs as its own CI job (make race) so a data race and a logic
# failure are reported separately.
verify: vet test verify-benchmark

verify-benchmark:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-batch compares the one-frame batch pipeline against the
# concurrent single-access fallback over a simulated WAN link.
bench-batch:
	$(GO) test -run XXX -bench 'Batch64' -benchtime 10x .

# bench-json regenerates the machine-readable perf baseline: the LBL
# table-build and recover kernels at 1 KiB values across 1/4/8 workers,
# with ops/s, p50/p99, and allocation counts. Run on the target
# hardware — the report records cpus_available, and the multicore
# speedup claim only holds where the cores exist.
bench-json:
	$(GO) run ./cmd/ortoa-bench -experiment bench -bench-out BENCH_5.json

# bench-smoke is the CI benchmark gate: one short pass over the kernel
# and hot-path benchmarks, checking they still run, plus a full-shape
# bench run gated against the checked-in BENCH_5.json baseline: the
# experiment fails on a >25% ops/s drop. The gate only arms when this
# host matches the baseline's recorded value size and CPU count (so a
# differently-sized CI runner skips the comparison with a note instead
# of failing on hardware differences).
bench-smoke:
	$(GO) test -run XXX -bench 'Kernel1KiB|LBLBuildRequest|SealLabel|OpenLabel' -benchtime 5x ./internal/core/ ./internal/crypto/secretbox/
	$(GO) run ./cmd/ortoa-bench -experiment bench -bench-baseline BENCH_5.json

# trace-smoke runs the one-trace Fig 3c experiment: a traced LBL
# workload must yield a complete cross-process span tree whose stage
# spans sum to the end-to-end span within 1%, with zero obliviousness
# shape violations while tracing is on (DESIGN.md §13). The experiment
# self-audits; a zero exit is the assertion.
trace-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment trace -quick

# aggregate-smoke runs the cross-session aggregation experiment in
# quick mode: 64 single-key sessions through the coalescing window vs
# the per-request path over a simulated London link (DESIGN.md §12).
aggregate-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment aggregate -quick

# failover-smoke runs the multi-proxy high-availability experiment in
# quick mode: proxy-count scaling plus the kill-and-adopt drill — one
# proxy is crash-killed mid-workload, survivors adopt its counter
# ranges through the epoch fence, and the experiment self-audits that
# no acknowledged write was lost and no obliviousness shape violation
# occurred (DESIGN.md §14). A zero exit is the assertion.
failover-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment failover -quick

# overload-smoke runs the overload-shedding experiment in quick mode:
# an admission-limited 2-proxy cluster is offered 10x its provisioned
# concurrency, and the experiment self-audits that goodput stays >=70%
# of measured capacity, accepted-request p99 stays bounded, no
# acknowledged write is lost, and the shape auditor records zero
# length violations — shedding is operation-type invisible
# (DESIGN.md §15). A zero exit is the assertion.
overload-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment overload -quick

# stream-smoke runs the request-streaming experiment in quick mode:
# access requests sent whole vs cut under a frame budget, over a link
# calibrated so one table costs about one build time on the wire. The
# experiment self-audits — it fails unless the cut request beats the
# whole one by the gate factor, crosses as exactly RequestFrames(1)
# frames with none over budget, the mid-request fault drill loses no
# acknowledged write, and the shape auditors record zero length
# violations (DESIGN.md §16). A zero
# exit is the assertion.
stream-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment stream -quick

# crash runs the kill/restart durability experiment at full scale:
# 50 seeded crash/recovery cycles under the group-commit WAL, the
# SyncNever rollback/reconciliation phase, and the never-vs-group-
# commit throughput bound (DESIGN.md §10). The experiment self-audits;
# a zero exit is the assertion.
crash:
	$(GO) run ./cmd/ortoa-bench -experiment crash

experiments:
	$(GO) run ./cmd/ortoa-bench -quick
