# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench bench-engine bench-cache bench-gate experiments vet fmt loc

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -l .

test:
	go test ./...

test-short:
	go test -short ./...

# One iteration of every benchmark (each regenerates a paper table/figure).
bench:
	go test -bench=. -benchmem -benchtime=1x ./...

# Engine throughput: ticked vs event-horizon scheduler -> BENCH_engine.json
# (kinstr/s per workload x prefetcher x scheduler, with speedup ratios).
bench-engine:
	go run ./cmd/benchengine -o BENCH_engine.json

# Hot-path micro-benchmarks: per-cycle cache pipeline cost (L1D and LLC
# geometries), per-cycle core issue cost on a pointer chase, and per-access
# prefetcher train/issue cost, with allocation counts (want 0 allocs/op).
bench-cache:
	go test -run '^$$' -bench 'BenchmarkCacheTick|BenchmarkCoreIssue|BenchmarkPrefetchTrain' -benchmem \
		./internal/cache/ ./internal/sim/ ./internal/prefetch/all/

# Regression gate: re-measure the engine matrix and fail if any cell is
# >10% slower than the newest committed BENCH_engine.json entry. Read-only:
# the trajectory file is not touched. Extra reps (best-of-5) damp scheduler
# noise; kinstr/s is machine-dependent, so refresh the trajectory with
# `make bench-engine` when the reference hardware changes.
bench-gate:
	go run ./cmd/benchengine -o BENCH_engine.json -gate -reps 5

# Regenerate the paper's full evaluation (BERTI_SCALE=quick|default|full).
experiments:
	go run ./cmd/experiments -all

loc:
	@find . -name '*.go' | xargs wc -l | tail -1
