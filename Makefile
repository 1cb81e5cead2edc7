# Convenience targets; everything is plain `go` underneath.

GO ?= go
BENCHTIME ?= 1x

.PHONY: all check build test vet fmtcheck loc bench bench-diff bench-guard race race-hot cluster-e2e loadgen corpus corpus-check fuzz cover experiments examples golden serve clean

all: build vet test

# The default pre-commit gate: build, vet, formatting, full tests, the
# race detector on the concurrent search packages (the full -race run
# is `make race`), a stratified replay of the committed scenario
# corpus against today's engines, and the library examples, which drive
# the mapping facade end to end (Problems 6.1 and 6.2 among them).
check: build vet fmtcheck test race-hot corpus-check examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any tracked Go file is not gofmt-clean.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Lines of Go per package: non-blank, non-comment lines of the files the
# package builds from (test files excluded), then the module's total.
# Run it before and after a change to get the change's net size.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | while read pkg dir files; do \
		[ -n "$$files" ] || continue; \
		(cd "$$dir" && awk '/^[ \t]*\/\*/ { c = 1 } c { if (/\*\//) c = 0; next } \
			/^[ \t]*(\/\/.*)?$$/ { next } { n++ } END { print n + 0 }' $$files) | \
		{ read n; printf '%7d %s\n' "$$n" "$$pkg"; }; \
	done | awk '{ print; t += $$1 } END { printf "%7d total\n", t }'

race:
	$(GO) test -race ./...

race-hot:
	$(GO) test -race ./internal/schedule/... ./internal/conflict/... ./internal/service/... ./internal/cluster/... ./internal/verify/... ./internal/trace/... ./internal/jobs/... ./internal/slo/...

# The multi-node federation tests: an in-process 3-node cluster under
# the race detector (distributed singleflight, peer cache-fill, peer
# death fallback, fill validation, hop-loop rejection).
cluster-e2e:
	$(GO) test -race -run 'TestClusterE2E' -v ./internal/service/
	$(GO) test -race -run 'TestRunInprocCluster' -v ./cmd/maploadgen/

# Reproducible cluster load test: replays a seeded permuted corpus
# against an in-process 3-node cluster and writes the JSON report
# (latency percentiles, cache-disposition ratios, SLO verdicts) to
# BENCH_pr7_cluster.json. Text summary goes to the terminal.
LOADGEN_OUT ?= BENCH_pr7_cluster.json
loadgen:
	$(GO) run ./cmd/maploadgen -inproc 3 -n 1200 -problems 48 -concurrency 16 -seed 1 \
		-slo-error-rate 0 -slo-hit-ratio 0.5 -json $(LOADGEN_OUT)

# Regenerate the committed scenario corpus (only needed when the
# generator or the families change; the manifest is deterministic for
# the seed, so an unchanged generator reproduces it byte for byte).
corpus:
	$(GO) run ./cmd/mapcorpus gen -n 10000 -seed 7 -out corpus/manifest.jsonl

# Differential regression oracle: replay a deterministic stratified
# sample of the committed corpus through the engines and the
# independent verifier; any divergence from the recorded outcomes
# fails the build.
corpus-check:
	$(GO) run ./cmd/mapcorpus check -manifest corpus/manifest.jsonl -sample 500 -seed 1

# Benchmarks, normalized to JSON comparable against BENCH_baseline.json
# (regenerate the baseline with `make bench BENCHTIME=2s > BENCH_baseline.json`
# on a quiet machine).
bench:
	@$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | $(GO) run ./internal/tools/benchjson

# Compare a captured benchmark report against the committed baseline,
# flagging any metric that worsened by more than 10%:
#   make bench > BENCH_new.json && make bench-diff NEW=BENCH_new.json
OLD ?= BENCH_baseline.json
NEW ?= BENCH_pr6.json
bench-diff:
	@$(GO) run ./internal/tools/benchjson -diff $(OLD) $(NEW)

# Overhead guard: measure one reference benchmark per guarded layer on
# this tree and on BASE (default HEAD, so an uncommitted change is
# guarded against the commit it sits on), on the same machine, and fail
# if any metric of the best of 5 runs (benchjson keeps each row's best)
# worsened by more than 2%, or if any custom b.ReportMetric unit (a
# deterministic work count such as candidates or pruned) changed at
# all. BASE is checked out with `git worktree add`
# into a temporary directory and both test binaries are built with
# `go test -c`; both trees run this tree's bench_test.go, so a row
# added here is guarded from its first commit on. The two binaries
# alternate row by row and round by round, so a drift in machine speed
# hits both alike. Every run's exit status is checked, and every
# guarded row must appear in both captures. Raw output lands in
# BENCH_guard_base.txt and BENCH_guard.txt. Run on a quiet machine.
# A change that means to move a custom unit names it on the command
# line, e.g. DECLARE='BenchmarkJointMapping/matmul/workers=2:pruned';
# there is no default.
BASE ?= HEAD
GUARD_BENCHTIME ?= 1s
GUARD_ROWS = Engines/procedure/mu=8 JointMapping/transitive-closure/workers=1 JointMapping/matmul/workers=2 JointMapping/bitlevel-00026/workers=1 JointMapping/bit-matmul/workers=1 JobLifecycle ServiceCacheHit ServicePareto MetricsScrape
bench-guard:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; rm -rf "$$tmp"' EXIT && \
	git worktree add --detach --quiet "$$tmp/base" $(BASE) && \
	cp bench_test.go "$$tmp/base/" && \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base.test" .) && \
	$(GO) test -c -o "$$tmp/new.test" . && \
	rm -f BENCH_guard_base.txt BENCH_guard.txt && \
	for round in 1 2 3 4 5; do \
		for row in $(GUARD_ROWS); do \
			(cd "$$tmp/base" && "$$tmp/base.test" -test.run '^$$' -test.bench "$$row\$$" -test.benchmem -test.benchtime=$(GUARD_BENCHTIME)) >> BENCH_guard_base.txt || exit 1; \
			"$$tmp/new.test" -test.run '^$$' -test.bench "$$row\$$" -test.benchmem -test.benchtime=$(GUARD_BENCHTIME) >> BENCH_guard.txt || exit 1; \
		done; \
	done && \
	$(GO) run ./internal/tools/benchjson < BENCH_guard_base.txt > BENCH_guard_base.json && \
	$(GO) run ./internal/tools/benchjson < BENCH_guard.txt > BENCH_guard.json && \
	$(GO) run ./internal/tools/benchjson -diff -threshold 0.02 -fail \
		-require '$(addprefix Benchmark,$(GUARD_ROWS))' -declare '$(DECLARE)' BENCH_guard_base.json BENCH_guard.json

# Short fuzz campaigns on every fuzz target (seed corpora always run
# under plain `make test`).
fuzz:
	$(GO) test -fuzz=FuzzDecideVsBruteForce -fuzztime=30s ./internal/conflict/
	$(GO) test -fuzz=FuzzFactoredVsFull -fuzztime=30s ./internal/conflict/
	$(GO) test -fuzz=FuzzDecideScratchVsBruteForce -fuzztime=30s ./internal/conflict/
	$(GO) test -fuzz=FuzzDeepNullSpaceVsBruteForce -fuzztime=30s ./internal/conflict/
	$(GO) test -fuzz=FuzzHNFInvariants -fuzztime=30s ./internal/intmat/
	$(GO) test -fuzz=FuzzRowNullBasis -fuzztime=30s ./internal/intmat/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/loopnest/
	$(GO) test -fuzz=FuzzVerifyVsBruteForce -fuzztime=30s ./internal/verify/
	$(GO) test -fuzz=FuzzClosedFormGamma -fuzztime=30s ./internal/verify/
	$(GO) test -fuzz=FuzzPeerBodies -fuzztime=30s ./internal/service/
	$(GO) test -fuzz=FuzzWalkerVsEnumerate -fuzztime=30s ./internal/schedule/

cover:
	$(GO) test -cover ./...

experiments:
	$(GO) run ./cmd/experiments -e all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/matmul
	$(GO) run ./examples/transitive
	$(GO) run ./examples/bitlevel
	$(GO) run ./examples/frontend
	$(GO) run ./examples/spaceopt

# Run the mapping-as-a-service HTTP server on :8080 (see README for
# the curl quickstart).
serve:
	$(GO) run ./cmd/mapserve -addr :8080

# Regenerate the figure golden files after an intentional format change.
golden:
	$(GO) test ./internal/spacetime/ -update

clean:
	$(GO) clean ./...
