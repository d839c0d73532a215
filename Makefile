# Development entry points. CI runs `make lint` as its lint gate; the other
# targets mirror the remaining CI jobs so a local run reproduces them.

GO ?= go

.PHONY: build test lint fmt vet calculonvet staticcheck race bench bench-update e2e lines

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lines prints the Go line counts ROADMAP.md tracks: test is every
# *_test.go file, production every other .go file (lint testdata included);
# bench/ and hidden directories are left out.
GO_FILES = find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go'
lines:
	@printf 'production %s\n' $$($(GO_FILES) ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
	@printf 'test       %s\n' $$($(GO_FILES) -name '*_test.go' -print0 | xargs -0 cat | wc -l)

# lint is the consolidated gate: formatting, go vet, the repo's own
# invariant analyzers (see docs/LINT.md), and staticcheck when installed.
lint: fmt vet calculonvet staticcheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "unformatted files:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# calculonvet proves the model's determinism, cancellation, counter, and
# error-handling invariants at compile time (internal/lint).
calculonvet:
	$(GO) run ./cmd/calculonvet ./...

# staticcheck is optional tooling: the gate passes without it installed so
# offline checkouts and minimal CI images stay green.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# race runs CI's two race steps: every concurrent package once, then the
# timing-sensitive ones three times over.
race:
	$(GO) test -race -short ./internal/search/... ./internal/perf/... ./internal/execution/... ./internal/experiments/... ./internal/service/... ./internal/resultstore/... ./internal/inference/... ./internal/serving/...
	$(GO) test -race -short -count=3 ./internal/service/... ./internal/search/... ./internal/serving/... ./internal/perf/... ./internal/resultstore/... ./cmd/calculon/...

# e2e boots a real calculond and drives the full job lifecycle over HTTP
# (CI's service-e2e job).
e2e:
	$(GO) test -tags e2e -run TestCalculondE2E -v ./cmd/calculond

# bench runs the exact measurement procedure the BENCH_BASELINE.json note
# documents and compares against the committed baseline (what CI's
# bench-smoke job does). bench-update re-measures and rewrites the baseline
# — run it on the reference machine after a deliberate performance change.
BENCH_CMDS = \
	$(GO) test -run '^$$' -bench BenchmarkExecutionSearch -benchtime 100x -count 3 ./internal/search; \
	$(GO) test -run '^$$' -bench BenchmarkSegmentSearch -benchtime 20x -count 3 ./internal/search; \
	$(GO) test -run '^$$' -bench BenchmarkSystemSizeSweep -benchtime 1x ./internal/search; \
	$(GO) test -run '^$$' -bench BenchmarkRunner -benchtime 100x ./internal/perf; \
	$(GO) test -run '^$$' -bench BenchmarkSearchWarmStore -benchtime 100x ./internal/resultstore; \
	$(GO) test -run '^$$' -bench BenchmarkStoreOpen -benchtime 5x -count 3 ./internal/resultstore; \
	$(GO) test -run '^$$' -bench BenchmarkServingSearch -benchtime 20x -count 3 ./internal/serving; \
	$(GO) test -run '^$$' -bench 'BenchmarkServingSweep$$' -benchtime 20x -count 3 ./internal/serving; \
	$(GO) test -run '^$$' -bench BenchmarkServingSweepWide -benchtime 10x -count 3 ./internal/serving

bench:
	@{ $(BENCH_CMDS); } | tee /dev/stderr | $(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -tolerance 0.30

bench-update:
	@{ $(BENCH_CMDS); } | tee /dev/stderr | $(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -update
