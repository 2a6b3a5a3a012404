GO ?= go
BIN := $(CURDIR)/bin

.PHONY: all build test lint race vet check bench-smoke wire-smoke fib-churn-smoke loc clean

all: check

build:
	$(GO) build ./...

# The benchmark harness (perfbench/) is its own module; its tests run
# here too.
test:
	$(GO) test ./...
	$(GO) -C perfbench test ./...

# eisrlint standalone over every package (tests included), with the
# per-analyzer findings/timing summary. Exit status is distinct per
# failure class: 0 clean, 1 findings, 2 load or usage error.
lint: $(BIN)/eisrlint
	$(BIN)/eisrlint -summary ./...

# eisrlint through the go vet unitchecker protocol, plus stock vet.
vet: $(BIN)/eisrlint
	$(GO) vet ./...
	$(GO) vet -vettool=$(BIN)/eisrlint ./...

# Race-detector pass over the packages with concurrent kernel state:
# sharded flow-table lookups and gate dispatch racing the PCU control
# path, the forwarding workers and epoch reclamation, metric
# registration/snapshot racing record calls, the fault barrier and
# quarantine path plus the wire topology (root package), the control
# server's connection-teardown bookkeeping, the netio RX goroutine and
# concurrent wire transmits racing Stop, the routing table's lock-free
# lookups racing batched applies, the route-feed daemon's flush/sweep
# machinery racing its sources, the analyzer suite (whose shared
# fixture loader is hit from parallel tests), and the packet-ownership
# handoff: pooled packets recycled by netdev while workers hand them to
# scheduler plugins (netdev, sched, plugins, bench), plus the BMP
# engines' copy-on-write derivations (bmp).
race:
	$(GO) test -race . ./internal/aiu ./internal/pcu ./internal/ipcore ./internal/telemetry ./internal/ctl ./internal/netio ./internal/routing ./internal/routefeed ./internal/analysis/... ./internal/netdev ./internal/bmp ./internal/sched ./internal/plugins ./internal/bench

# Overhead guards: the telemetry-off flow-cache hit path must stay
# allocation-free and the disabled record calls under 2ns per packet;
# the 4-worker cache-hit path must scale (skips below 4 cores); the
# netio wire RX and TX paths must stay allocation-free per packet; the
# path-trace origin check with sampling disabled must cost 0 allocs and
# < 2ns per packet; the Eiffel scheduler's per-packet cost must stay
# flat (<=2x) from 10k to 100k live flows with 0 allocs in steady state;
# FIB lookups at a million prefixes must stay allocation-free and an
# incremental single-route update must beat the full rebuild by >= 10x
# at 100k, with churn never costing packets on the wire.
bench-smoke:
	EISR_BENCH_SMOKE=1 $(GO) test -run BenchSmoke -count=1 -v ./internal/aiu ./internal/bench ./internal/netio ./internal/telemetry

# End-to-end wire smoke: boot an eisrd with UDP overlay links, push 10k
# datagrams through its gate/classifier path with eisrbench, verify
# zero unexplained drops, and exercise `pmgr links`.
wire-smoke:
	./scripts/wire_smoke.sh

# Full-table FIB smoke: load a 100k-prefix dump into a live eisrd
# through the route feed (one batch, one snapshot publication), check
# the pmgr feed/routes surfaces, journal records and eisr_fib_feed_*
# telemetry, then run 10k route updates under verified forwarding load
# with zero unexplained drops and bounded convergence.
fib-churn-smoke:
	./scripts/fib_churn_smoke.sh

# Code size of the core packages (ipcore, telemetry, netio, netdev):
# non-test, non-comment, non-blank Go lines per package.
loc:
	./scripts/loc.sh

check: build test lint vet race

$(BIN)/eisrlint: FORCE
	$(GO) build -o $(BIN)/eisrlint ./cmd/eisrlint

.PHONY: FORCE
FORCE:

clean:
	rm -rf $(BIN)
