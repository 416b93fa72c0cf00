# Tier-1 verification in one command: `make check`.
GO ?= go

.PHONY: check build vet test race fmt bench-module examples bench bench-smoke smoke fuzz

check: fmt build vet test race bench-module examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt fails (listing the offending files) when anything is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench-module vets and tests muppetbench/, which is its own Go module:
# the root `go test ./...` never compiles it, so without this target
# removing an API the benchmark imports would pass `make check`.
bench-module:
	cd muppetbench && $(GO) vet ./... && $(GO) test ./...

# examples runs each example from the repo root and diffs its stdout
# against testdata/examples/<name>.out, so a change to an example or to
# the API it drives cannot alter what it prints unnoticed.
examples:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for e in conformance multiparty negotiation quickstart; do \
		$(GO) run ./examples/$$e > "$$tmp/$$e.out" || exit 1; \
		diff -u testdata/examples/$$e.out "$$tmp/$$e.out" || exit 1; \
	done

# bench runs every `go test -bench` reproduction (paper figures, the
# Sec. 5 scaling sweep, ablations, delta) and prints the text report.
# Wall time is judged by muppetbench (`bash muppetbench/run.sh`).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke runs each benchmark once: enough to keep them from rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzz runs every fuzz target for a few seconds each (CI's fuzz smoke).
# -fuzz accepts one target in one package per run, hence one line each.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/yamllite/
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/goals/
	$(GO) test -fuzz=FuzzDifferentialCDCL -fuzztime=30s ./internal/sat/
	$(GO) test -fuzz=FuzzMinimize -fuzztime=10s ./internal/target/
	$(GO) test -fuzz=FuzzDecodeEnvelope -fuzztime=10s ./internal/feder/
	$(GO) test -fuzz=FuzzTranslationMatchesEvaluator -fuzztime=10s ./internal/relational/
	$(GO) test -fuzz=FuzzTupleSetMatchesReference -fuzztime=5s ./internal/relational/

# smoke boots a real muppetd over the Fig. 1 testdata, probes /healthz,
# runs one check, and asserts a clean SIGTERM drain.
smoke:
	GO="$(GO)" ./scripts/daemon_smoke.sh
