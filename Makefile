GO ?= go

.PHONY: build test vet race verify verify-benchmark benchmark-smoke noaes fuzz-smoke bench bench-smoke trace-smoke drills experiments examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails on any Go file gofmt would change, the benchmark
# module's included: `gofmt -l` lists them and prints nothing otherwise.
# It vets the module a second time as arm64, which builds the files an
# arch without the amd64 kernels — the π pad and the point-and-permute
# table build — builds (the standard library cross-compiles offline), so
# a missing fallback fails here, not on a user's machine.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: not formatted:"; echo "$$unformatted"; exit 1; fi

# race runs the full test suite under the race detector; the batched
# pipeline tests exercise concurrent AccessBatch/Access interleavings,
# parallel per-shard batch fan-out, and server shutdown draining, and the
# hold tests arrivals for a key racing that key's round returning, held
# accesses leaving folded as their keys come back under resets, and Close
# draining both. The hold, fold, two-proxy and repeated-key tests then run
# ten times more: a folded round's values pass from the goroutine that
# carried it to each member's. So do the retry, multi-frame and stream
# tests: every request's frames go out through one send path, whose check
# for an early response races the read loop delivering it.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Hold|Held|Coalesce|TwoProxies|BatchDuplicate|Retry|MultiFrame|Stream' ./...

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

# benchmark-smoke runs the instrument, where verify-benchmark only builds
# it: the benchmark module's quick run without -short — three real tiers,
# untraced and traced, every value checked, exactly the metric names
# BENCHMARK.json promises — and two seconds of the hot-key WAN workload,
# whose held accesses leave folded, through run.sh, which exits non-zero
# on any failed or wrong operation, then two of the 4 KiB workload, whose requests are cut into frames —
# the one run here that exercises the cut-request exchange and recovery
# at 4 KiB — and two more of it traced, so the instrument's per-layer
# readings, the hand-encoded request's length identity at 16,384 groups
# among them, are checked here too and not first in the benchmark
# pipeline. A code change that rewires what benchmark/deploy.go stands on
# fails here, not in the benchmark pipeline's run.
benchmark-smoke:
	$(GO) -C benchmark test -count=1 -run TestQuickRun ./...
	bash benchmark/run.sh -workload wan-agg-160b -seconds 2
	bash benchmark/run.sh -workload dc-4k-stream -seconds 2
	bash benchmark/run.sh -workload dc-4k-stream -seconds 2 -trace 1

# noaes re-runs the entry- and record-format tests — the known-answer
# vectors of the sealer, of the one-block pad, of the record verifier,
# of the label schedule's keystream rows and of both kernels' key
# expansions, the rows against single blocks, the sealer's properties, the
# stored-record golden bytes and each mode's pinned bytes, the
# carried-schedule, request, π-kernel and point-and-permute build parity
# tests — on Go's table-driven AES and generic CTR, which hardware without
# AES instructions falls back to: both implementations must produce the
# same bytes, or two hosts of one deployment could not open each other's
# tables and records. GODEBUG=cpu.aes=off reaches crypto/aes but not the
# kernels' own CPUID check, so that run holds the kernels to generic
# AES; the purego tag then switches both to their generic code, as on a
# host without AES instructions.
noaes:
	GODEBUG=cpu.aes=off $(GO) test -count=1 -run 'Label|Sealer|KnownAnswer|Parity|Golden' ./internal/crypto/... ./internal/core/
	$(GO) test -count=1 -tags purego -run 'Label|Sealer|KnownAnswer|Parity|Golden' ./internal/crypto/... ./internal/core/

# fuzz-smoke runs every fuzzer in the module for 10 s of generated
# inputs (`go test` alone runs only their seed corpora): in internal/core,
# frame sequences at the LBL server's one handler — whole, cut,
# reordered, with a key repeated, of which at most one segment installs —
# and tampered response slots at the LBL proxy, a folded round's
# included, then arbitrary payloads at the TEE and FHE
# servers and arbitrary answers at their proxies, and generated runs of
# the point-and-permute table build, the kernel against the portable
# path; in internal/kvstore, the snapshot and log a restart
# parses from its state directory; in internal/wire, the decoder every
# payload goes through. The list is `go test -list`'s, so a fuzzer runs
# here from the change that adds it; a package that fails to build fails
# the target. The fuzz engine takes one target per run; -run='^$$' keeps
# the unit tests out of it.
fuzz-smoke:
	@fuzzers=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2 "," f[i]; n = 0 } /^FAIL/ { bad = 1 } END { exit bad }') && \
	test -n "$$fuzzers" && \
	for pf in $$fuzzers; do \
		p=$${pf%,*}; f=$${pf#*,}; \
		echo "== $$p $$f"; \
		$(GO) test -run='^$$' -fuzz="^$$f\$$" -fuzztime=10s $$p || exit 1; \
	done

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-smoke is the CI benchmark smoke: one short pass over the kernel
# and hot-path benchmarks — the deployed point-and-permute kernels among
# them: the pad of one group and of 640, the fused table-build kernel
# alone at 640 and 16,384 groups, the server's decryption pass and
# the one-worker table build at 640 and 16,384 groups (a 160 B and a
# 4 KiB value), each reporting ns per AES block of its floor; the last
# two on a command of their own, since -bench splits its
# pattern at every slash — then one WAN bulk load (2,000 × 160 B over a
# simulated 21.84 ms, 12 MiB/s link) through the public Load, checking
# they still run. Timings are gated elsewhere — the repository benchmark
# (benchmark/, BENCHMARK.json) measures these kernels in its per-layer
# ledger, and the load as its setup_s, on every PR.
bench-smoke:
	$(GO) test -run XXX -bench 'Kernel1KiB|LBLBuildRequest|LabelSeal|LabelOpen|PadGroup|PermuteGroups' -benchtime 5x ./internal/core/ ./internal/crypto/secretbox/
	$(GO) test -run XXX -bench 'LBLServerDecrypt/point-permute' -benchtime 5x ./internal/core/
	$(GO) test -run XXX -bench 'WorkerCrossover/build/groups=(640|16384)/workers=1$$' -benchtime 5x ./internal/core/
	$(GO) test -run XXX -bench 'Load/wan' -benchtime 1x .

# trace-smoke runs the value-size sweep (Figs 3b and 3c) at smoke scale.
# Every LBL run is instrumented and traced, and at 160 B the workload
# runs again with requests cut into several frames; each must yield a
# complete cross-process span tree whose stage spans sum to the
# end-to-end span exactly, stage histograms whose counts are the
# end-to-end one's and whose breakdown c + o + p adds up to its sum
# exactly (one stage clock feeds both, DESIGN.md §8), and zero
# obliviousness shape violations while tracing is on (DESIGN.md §13).
# The runs self-audit and the claim is checked; a zero exit is the
# assertion.
trace-smoke:
	$(GO) run ./cmd/ortoa-bench -experiment fig3b -quick

# drills runs every fault drill through ortoa-bench: chaos (transport
# faults, then the same with a proxy crash-restart), failover
# (peers serve a killed proxy's keys, DESIGN.md §14), overload (10x
# offered load against admission control, §15) and stream (requests cut
# under a frame budget, reset mid-request, §16) in -quick mode, and crash
# (50 seeded kill/restart cycles under the group-commit WAL and the
# SyncNever rollback phase, §10) at full scale. Every drill stands on
# the same harness.Cluster and runs the one workload and audit of
# internal/harness/drill.go under its own fault — no acknowledged write
# lost, at most one round per counter value, zero obliviousness shape
# violations — plus whatever it adds (goodput floor, rebases after a kill).
# The experiments self-audit; a zero exit is the assertion.
# `make drill-<id>` runs one; CI runs them as one matrix job.
DRILLS := chaos failover overload stream crash

drills: $(DRILLS:%=drill-%)

drill-crash:
	$(GO) run ./cmd/ortoa-bench -experiment crash

drill-%:
	$(GO) run ./cmd/ortoa-bench -experiment $* -quick

# examples runs every program under examples/; each checks its own
# outcome and exits non-zero (log.Fatal) when it does not hold.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# experiments prints every registered experiment's table at smoke
# scale, then the reproduction checklist — each experiment's claim, held
# or refuted — and fails if any claim was refuted. `make verify` checks
# the same at test scale: TestEveryExperimentQuick (internal/harness)
# ranges over the registry.
experiments:
	$(GO) run ./cmd/ortoa-bench -quick
