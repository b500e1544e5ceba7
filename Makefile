GO ?= go

.PHONY: check vet build test perfbench-check lint diff-oracle race bench profile tables clean

# Tier-1 gate: everything must vet, build and pass, the benchmark module
# (perfbench/, a separate Go module that reads Stats fields by name)
# included.
check: vet build test perfbench-check

# Invariant lint: the vplint analyzers (docs/LINTING.md) over the whole
# module, in both build-tag variants so the scan oracle stays analyzable.
# `go test ./...` runs the same analyzers through internal/lint's
# TestRepoClean, which also pins each variant's waiver count.
lint:
	$(GO) run ./cmd/vplint ./...
	$(GO) run ./cmd/vplint -tags scanoracle ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Differential oracle: the pre-refactor scan kernel lives behind the
# scanoracle build tag; this runs the event-vs-scan equivalence sweep
# (CI runs it on every push).
diff-oracle:
	$(GO) vet -tags scanoracle ./internal/pipeline/
	$(GO) test -tags scanoracle -run 'TestDifferential' ./internal/pipeline/

race:
	$(GO) test -race ./...

# Go benchmarks: one per paper table and figure plus simulator and batch
# throughput. Trusted end-to-end and per-layer speed numbers come from
# perfbench (perfbench/README.md, BENCHMARK.json); allocation budgets are
# pinned by TestAllocsPerInstr.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# CPU+heap profiles of the simulator throughput benchmarks: feed the
# outputs to `go tool pprof repro.test cpu.pprof`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkRunBatch$$|BenchmarkSimulatorThroughput' -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profiles: cpu.pprof mem.pprof (go tool pprof repro.test cpu.pprof)"

# Regenerate every paper table/figure through the registry + engine path.
tables:
	$(GO) run ./cmd/vptables -exp all

clean:
	$(GO) clean ./...
