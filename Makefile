# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet fmt-check race chaos registry-smoke cover bench bench-smoke bench-e2e fuzz-smoke loc selftest reproduce clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean; on failure the offenders are listed.
fmt-check:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

test:
	$(GO) test -shuffle=on ./...

# Every package with its own goroutine pool: the scheduler (the shared
# cursor and the ready list), the bulk all-pairs executor, the
# batch-GCD tree engine, the attack pipeline that drives both, the
# lock-free metrics layer, the lane-batched kernel (shared per-worker
# arenas), mpnat (the per-worker DivScratch of Original and Fast
# Euclid) + the generic tree builder and the descents that run on the
# ready list, the streaming registry (findings forwarder, and the pools
# of its fold, chunk trees, chunk descents and node rebuilds), and the
# public facade.
race:
	$(GO) test -race ./internal/engine/ ./internal/bulk/ ./internal/batchgcd/ ./internal/attack/ ./internal/obs/ ./internal/lanes/ ./internal/mpnat/ ./internal/subprod/ ./internal/registry/ .

# Fault-injection hardening: the chaos suite (kill/resume/panic
# campaigns, chaos_test.go) and the resilience packages it drives, all
# under the race detector. -short keeps only the soak tests out; the chaos tests
# themselves stay enabled with reduced rounds.
chaos:
	$(GO) test -race -short -run 'TestChaos' .
	$(GO) test -race -short ./internal/checkpoint/ ./internal/faultinject/ ./internal/sigctx/ \
	    ./internal/bulk/ ./internal/attack/ ./internal/registry/ \
	    ./cmd/rsafactor/ ./cmd/gcdbench/

# Streaming registry end to end: a real `rsafactor watch` server fed a
# weak corpus over HTTP in three waves with a SIGKILL between waves two
# and three; the replayed registry must lose nothing acknowledged, the
# final /broken set must diff clean against a one-shot batch run, and
# the server's /timeline and /dashboard pages must serve.
registry-smoke:
	./scripts/registry_smoke.sh

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over the root benchmark suite (compile + run each
# benchmark once) plus a small gcdbench sweep emitting the JSON report
# artifacts CI uploads; catches benchmark rot without benchmark cost.
# The hybrid line runs BenchmarkHybrid in -short mode (512-moduli corpus),
# which self-enforces the >= 3x full-GCD reduction bound, the trace-
# overhead line self-enforces the <= 2% tracing budget (traced vs
# Trace=nil hybrid cells in ABBA order, median of the quad diffs), the
# lane-kernel line runs BenchmarkLaneKernel in -short mode (self-enforces
# the >= 3x per-pair speedup over the scalar kernel at GOMAXPROCS=1), and
# the engine comparison emits the three-engine timing table as a second
# artifact.
# The registry line runs BenchmarkRegistrySubmit in -short mode (8192-key
# seed), which self-enforces the O(log N) spine-merge bound per submission
# and a >= 5x advantage over a full batch-GCD rescan, and
# BenchmarkRegistryReopen (same seed), which fails unless the node files
# make the first submit after a reopen >= 3x faster than rebuilding, in
# the median of 8 ABBA rounds (it reports files-x-q1/files-x-q3). The
# batch-GCD line runs BenchmarkBatchGCDDensity in -short mode (256 x
# 512-bit keys at 0-100% sharing), so both ways of building batch GCD's
# candidate set, the hit reduce and the dense guard, run on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .
	$(GO) test -short -run '^$$' -bench 'BenchmarkRegistry(Submit|Reopen)$$' -benchtime=1x ./internal/registry/
	$(GO) test -short -run '^$$' -bench 'BenchmarkBatchGCDDensity$$' -benchtime=1x ./internal/batchgcd/
	$(GO) test -short -run '^$$' -bench 'BenchmarkHybrid$$' -benchtime=1x ./internal/bulk/
	$(GO) test -short -run '^$$' -bench 'BenchmarkHybridTraceOverhead$$' -benchtime=1x ./internal/bulk/
	GOMAXPROCS=1 $(GO) test -short -run '^$$' -bench 'BenchmarkLaneKernel$$' -benchtime=1x ./internal/lanes/
	mkdir -p results
	$(GO) run ./cmd/gcdbench -table 4,5 -pairs 100 -moduli 96 -cpupairs 30 \
	    -sizes 256,512 -json results/bench-smoke.json
	$(GO) run ./cmd/gcdbench -crossover -engine pairs,batch,hybrid \
	    -sizes 256 -json results/bench-smoke-engines.json

# Smoke test of the repository benchmark (bench/, its own Go module):
# every workload at -quick size against the real public surfaces and a
# real `rsafactor watch` subprocess, each result checked against the
# generated ground truth. The timed runs are `bash bench/run.sh`.
bench-e2e:
	cd bench && $(GO) test .

# 30-second budget per fuzzer over the arithmetic core: the long division
# (DivScratch, fresh and reused, seeded with the Knuth-D correction corners
# and exact divisions), the fused update, and hex parsing, each
# differential against math/big, plus the engines built on it: lanes, the
# scheduler (the shared cursor, and the ready list over random forests:
# every unit once, after the unit that released it), the registry's
# spine merges, the registry's batch checks against key-by-key
# submission (FuzzSubmitBatchMatchesKeyByKey: random batch cuts, some
# across the 256-key chunk boundary), subprod's three descents
# (Prefixes, Suffixes and Reduce, on trees with and without their root)
# against math/big,
# the hybrid engine's tile-tree filter against a naive scan, batch
# GCD's prefix, candidate and suffix passes against naive pairwise GCDs
# (2-24 moduli reach the lone top pair, promoted odd nodes, a few hits
# among many coprime keys and the dense guard), the
# attack's primality test against a Miller-Rabin over bases 2..37
# (exact on 64-bit inputs) and on products of two fuzzed integers, and
# the lenient corpus reader over hex and PEM input against the strict
# one.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDivMod -fuzztime 30s ./internal/mpnat/
	$(GO) test -run '^$$' -fuzz FuzzSubMulRshift -fuzztime 30s ./internal/mpnat/
	$(GO) test -run '^$$' -fuzz FuzzHexRoundTrip -fuzztime 30s ./internal/mpnat/
	$(GO) test -run '^$$' -fuzz FuzzLanesMatchesScalar -fuzztime 30s ./internal/lanes/
	$(GO) test -run '^$$' -fuzz FuzzRunCoverage -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzRunReadyCoverage -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzSpineMerge -fuzztime 30s ./internal/registry/
	$(GO) test -run '^$$' -fuzz FuzzSubmitBatchMatchesKeyByKey -fuzztime 30s ./internal/registry/
	$(GO) test -run '^$$' -fuzz FuzzDescentsMatchNaive -fuzztime 30s ./internal/subprod/
	$(GO) test -run '^$$' -fuzz FuzzHybridMatchesNaive -fuzztime 30s ./internal/bulk/
	$(GO) test -run '^$$' -fuzz FuzzBatchGCDMatchesNaive -fuzztime 30s ./internal/batchgcd/
	$(GO) test -run '^$$' -fuzz FuzzIsPrime -fuzztime 30s ./internal/attack/
	$(GO) test -run '^$$' -fuzz FuzzLenientSource -fuzztime 30s ./internal/corpus/

# Production Go line count: every tracked .go file except tests and the
# benchmark module. Simplicity changes quote this one number.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs wc -l | tail -1

selftest:
	$(GO) run ./cmd/gcdselftest -n 5000 -v

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
reproduce:
	mkdir -p results
	$(GO) run ./cmd/gcdbench -table 4 -pairs 500                  | tee results/table4.txt
	$(GO) run ./cmd/gcdbench -table 5 -moduli 128 -cpupairs 100 \
	    -simthreads 96 -clock 0.9 -sms 15                         | tee results/table5_early.txt
	$(GO) run ./cmd/gcdbench -betastats -pairs 400                | tee results/betastats.txt
	$(GO) run ./cmd/gcdbench -memops -pairs 200                   | tee results/memops.txt
	$(GO) run ./cmd/gcdbench -ablation -sizes 512 -pairs 200      | tee results/ablation.txt
	$(GO) run ./cmd/gcdbench -crossover -sizes 512                | tee results/crossover.txt
	$(GO) run ./cmd/ummsim -fig 2                                 | tee results/fig2.txt
	$(GO) run ./cmd/ummsim -fig 3                                 | tee results/fig3.txt
	$(GO) run ./cmd/ummsim -theorem1                              | tee results/theorem1.txt
	$(GO) run ./cmd/ummsim -semioblivious -bits 1024 -p 128       | tee results/semioblivious.txt
	$(GO) run ./cmd/ummsim -divergence -bits 512 -p 64            | tee results/divergence.txt
	$(GO) run ./cmd/ummsim -occupancy -bits 1024 -p 128           | tee results/occupancy.txt
	$(GO) run ./cmd/ummsim -related -p 128                        | tee results/relatedwork.txt
	$(GO) run ./cmd/ummsim -oblivioustax -bits 1024 -p 128        | tee results/oblivioustax.txt

clean:
	rm -f test_output.txt bench_output.txt
