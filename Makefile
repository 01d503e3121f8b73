# Convenience targets; everything is plain `go` underneath.

.PHONY: all build lint lint-sarif test short bench bench-json bench-repair bench-incremental bench-distance bench-check alloc-smoke experiments fuzz cover examples serve

all: build lint test

build:
	go build ./...

lint:
	go vet ./...
	go run ./cmd/repairlint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# SARIF 2.1.0 log of the active findings, for CI annotation/upload.
lint-sarif:
	go run ./cmd/repairlint -format=sarif ./... > repairlint.sarif || true
	@echo wrote repairlint.sarif

test:
	go test ./...

short:
	go test -short ./...

bench:
	go test -bench=. -benchmem ./...

# Runs the vgraph/detect construction-phase benchmark family and writes
# BENCH_vgraph.json (ns/op, edges/s, cache hit rate, speedups), then the
# repair-phase family into BENCH_repair.json.
bench-json:
	go run ./cmd/repairbench -exp graphbench -benchout BENCH_vgraph.json
	$(MAKE) bench-repair

# Runs the repair-phase benchmark family (greedy growth naive vs heap,
# exact branch-and-bound combination throughput, plan evaluation) and
# writes BENCH_repair.json.
bench-repair:
	go run ./cmd/repairbench -exp repairbench -benchout BENCH_repair.json

# Replays a timed ingest stream against the sharded incremental engine and
# against monolithic per-batch recomputation, and writes
# BENCH_incremental.json (per-batch latency, shard telemetry, ratios).
bench-incremental:
	go run ./cmd/repairbench -exp incrbench -benchout BENCH_incremental.json

# Times the string-distance hot paths (bit-parallel kernels vs the retained
# DPs, one-vs-many Matcher streams, distance-plane cache hits) and writes
# BENCH_strsim.json.
bench-distance:
	go run ./cmd/repairbench -exp distbench -benchout BENCH_strsim.json

# Re-measures the committed BENCH_*.json benchmark families into fresh files
# and fails when any shared entry regressed by more than 25% ns/op.
bench-check:
	go run ./cmd/repairbench -exp graphbench -benchout BENCH_vgraph.ci.json
	go run ./cmd/repairbench -exp distbench -benchout BENCH_strsim.ci.json
	go run ./cmd/benchcheck -threshold 1.25 \
		BENCH_vgraph.json=BENCH_vgraph.ci.json \
		BENCH_strsim.json=BENCH_strsim.ci.json

# Alloc-regression smoke: the gate test asserts steady-state greedy rounds
# perform zero heap allocations (pooled grower + caller-owned buffer), and
# the one-iteration -benchmem runs surface the allocs/op of the other hot
# paths for eyeballing in CI logs.
alloc-smoke:
	go test -run 'TestGreedyGrowthSteadyStateAllocs' ./internal/repair/
	go test -run '^$$' -bench 'BenchmarkGreedyGrowth' -benchtime=1x -benchmem ./internal/repair/
	go test -run '^$$' -bench 'BenchmarkJointGrowth' -benchtime=1x -benchmem ./internal/repair/
	go test -run '^$$' -bench 'BenchmarkGraphBuildWorkers' -benchtime=1x -benchmem .

experiments:
	go run ./cmd/repairbench -exp all -scale 0.2

serve:
	go run ./cmd/repaird -addr :8080

fuzz:
	go test -fuzz=FuzzLevenshteinBounded -fuzztime=30s ./internal/strsim/
	go test -fuzz=FuzzOSABounded -fuzztime=30s ./internal/strsim/
	go test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/dataset/
	go test -fuzz=FuzzBuildMatchesNestedLoop -fuzztime=30s ./internal/targettree/
	go test -run='^$$' -fuzz='^FuzzSelfJoin$$' -fuzztime=30s ./internal/strsim/

cover:
	go test -cover ./internal/... .

examples:
	go run ./examples/quickstart
	go run ./examples/threshold
	go run ./examples/hospital -n 1000
	go run ./examples/tax -n 1000
	go run ./examples/discovery -n 1000
	go run ./examples/streaming -base 800 -stream 200
	go run ./examples/masterdata -n 800
	go run ./examples/denial -n 500
