# Tier-1 verification in one command: `make check`.
GO ?= go

.PHONY: check build vet test race fmt bench-module bench bench-smoke smoke

check: fmt build vet test race bench-module

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

# bench runs every `go test -bench` reproduction (paper figures, the
# Sec. 5 scaling sweep, ablations, delta) and prints the text report.
# Wall time is judged by muppetbench (`bash muppetbench/run.sh`).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke runs each benchmark once: enough to keep them from rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# smoke boots a real muppetd over the Fig. 1 testdata, probes /healthz,
# runs one check, and asserts a clean SIGTERM drain.
smoke:
	GO="$(GO)" ./scripts/daemon_smoke.sh
