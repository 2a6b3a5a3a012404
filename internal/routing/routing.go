// Package routing implements the router's forwarding table on top of the
// pluggable best-matching-prefix algorithms, plus the paper's §8
// extension: routing integrated with the packet classifier (QoS routing /
// L4 switching), where per-flow filters select routes ahead of the
// destination-only longest-prefix match.
//
// As the paper observes, plain routing *is* packet classification with
// only the destination field specified and everything else wildcarded;
// this package keeps the conventional destination table for the fast
// common case and delegates flow-sensitive routing to the classifier.
package routing

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// NextHop is a forwarding decision.
type NextHop struct {
	IfIndex int32
	// Gateway is the next-hop address; the zero Addr means directly
	// connected (deliver to the destination itself).
	Gateway pkt.Addr
	// Metric orders competing routes to the same prefix.
	Metric int
}

// Route pairs a prefix with its next hop, for listings.
type Route struct {
	Prefix  pkt.Prefix
	NextHop NextHop
}

// Table is a concurrency-safe forwarding table. The longest-prefix-match
// engine is one of the BMP plugins, selected at construction — exactly
// the paper's arrangement, where BMP implementations are plugins used
// "for packet classification and routing".
//
// Lookups are lock-free: mutators derive a new BMP structure under the
// control-path mutex and publish it atomically. Every worker of the
// parallel forwarding engine performs a route lookup per routed packet,
// so even a read lock here would put one shared cache line on every
// core's hit path; copy-on-write moves the entire cost to route churn,
// which is control-path by definition.
//
// Engines that implement bmp.Incremental (PATRICIA, BSPL, CPE) derive
// each generation from the published one via ApplyDelta, copying only
// the structure the batch touches; linear rebuilds from the route list.
// Either way exactly one snapshot is published per mutation batch.
type Table struct {
	mu   sync.Mutex // serializes mutators
	kind bmp.Kind
	list map[pkt.Prefix]NextHop
	snap atomic.Pointer[tableSnap]
	met  *telemetry.FIBMetrics
}

// tableSnap is one immutable published generation of the BMP structure.
type tableSnap struct {
	bmp bmp.Table
}

// New builds a table on the given BMP algorithm ("" = CPE, whose
// lookup reads at most four levels).
func New(kind bmp.Kind) (*Table, error) {
	if kind == "" {
		kind = bmp.KindCPE
	}
	// Validate the kind and publish an empty structure.
	b, err := bmp.New(kind)
	if err != nil {
		return nil, err
	}
	t := &Table{kind: kind, list: make(map[pkt.Prefix]NextHop)}
	t.snap.Store(&tableSnap{bmp: b})
	return t, nil
}

// SetTelemetry attaches the eisr_fib_* metric family. Control path;
// call before route churn starts (typically right after construction).
func (t *Table) SetTelemetry(tel *telemetry.Telemetry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.met = tel.FIBMetrics(string(t.kind))
	t.met.SetRoutes(len(t.list))
}

// rebuildLocked constructs a fresh BMP structure from the route list,
// primes its lazily built internals (the data path must never mutate
// the published structure), and publishes it. One lookup primes it:
// the lazy engines (BSPL, CPE) rebuild everything, both address
// families, on their first lookup after a mutation. Called with t.mu
// held.
func (t *Table) rebuildLocked() {
	b, err := bmp.New(t.kind)
	if err != nil {
		return // kind was validated at construction; unreachable
	}
	for p, nh := range t.list {
		b.Insert(p, nh)
	}
	b.Lookup(pkt.Addr{}, nil)
	t.snap.Store(&tableSnap{bmp: b})
}

// bulkRebuildOps is the batch size at which publishLocked starts
// considering a full rebuild instead of per-prefix incremental
// maintenance: below it incremental always wins, above it the batch
// must also be a large fraction of the resulting table. A full-table
// dump load (ops ≈ table) rebuilds once; a 10k-route churn batch on a
// million-route table stays incremental.
const bulkRebuildOps = 4096

// publishLocked publishes one snapshot reflecting delta d: derived
// incrementally from the live snapshot when the engine supports it,
// rebuilt from the route list otherwise. Called with t.mu held (the
// mutex is what makes load-modify-store on t.snap safe). Reports
// whether the incremental path was taken.
func (t *Table) publishLocked(d bmp.Delta) bool {
	if ops := len(d.Adds) + len(d.Dels); ops >= bulkRebuildOps && ops*2 >= len(t.list) {
		t.rebuildLocked()
		return false
	}
	if inc, ok := t.snap.Load().bmp.(bmp.Incremental); ok {
		if nb, applied := inc.ApplyDelta(d); applied {
			t.snap.Store(&tableSnap{bmp: nb})
			return true
		}
	}
	t.rebuildLocked()
	return false
}

// ApplyBatch installs adds and withdraws dels as one mutation batch
// with a single snapshot publication — the bulk-load and churn-feed
// entry point. Adds are applied before dels; callers with interleaved
// same-prefix operations must coalesce to the last op per prefix first.
// Per-route semantics match Add/Del: an add with a worse (higher)
// metric than the installed route is ignored, a del of an absent prefix
// is a no-op. Returns the number of routes actually installed and
// withdrawn.
func (t *Table) ApplyBatch(adds []Route, dels []pkt.Prefix) (nadds, ndels int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()
	var d bmp.Delta
	for _, r := range adds {
		p := pkt.PrefixFrom(r.Prefix.Addr, r.Prefix.Len)
		if old, ok := t.list[p]; ok && old.Metric < r.NextHop.Metric {
			continue
		}
		t.list[p] = r.NextHop
		d.Adds = append(d.Adds, bmp.PrefixVal{Prefix: p, Val: r.NextHop})
		nadds++
	}
	for _, p := range dels {
		p = pkt.PrefixFrom(p.Addr, p.Len)
		if _, ok := t.list[p]; !ok {
			continue
		}
		delete(t.list, p)
		d.Dels = append(d.Dels, p)
		ndels++
	}
	if d.Empty() {
		return
	}
	incremental := t.publishLocked(d)
	t.met.RecordBatch(nadds, ndels, len(t.list), incremental, uint64(time.Since(start)))
	return
}

// Add installs or replaces a route. A route with a worse (higher) metric
// than the installed one for the same prefix is ignored.
func (t *Table) Add(p pkt.Prefix, nh NextHop) {
	t.ApplyBatch([]Route{{Prefix: p, NextHop: nh}}, nil)
}

// Del removes a route, reporting whether it existed.
func (t *Table) Del(p pkt.Prefix) bool {
	_, n := t.ApplyBatch(nil, []pkt.Prefix{p})
	return n > 0
}

// Lookup finds the longest-prefix route for a destination. Lock-free:
// one atomic snapshot load, then a walk of an immutable structure.
//
//eisr:fastpath
func (t *Table) Lookup(dst pkt.Addr, c *cycles.Counter) (NextHop, bool) {
	v, _, ok := t.snap.Load().bmp.Lookup(dst, c)
	if !ok {
		return NextHop{}, false
	}
	return v.(NextHop), true
}

// Len returns the number of installed routes.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.list)
}

// Routes lists routes sorted by prefix string (stable for display).
func (t *Table) Routes() []Route {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Route, 0, len(t.list))
	for p, nh := range t.list {
		out = append(out, Route{Prefix: p, NextHop: nh})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.String() < out[j].Prefix.String() })
	return out
}

// ParseRoute parses "PREFIX dev N [via GATEWAY] [metric M]" — the static
// route syntax of the route daemon and pmgr.
func ParseRoute(s string) (Route, error) {
	fields := strings.Fields(s)
	if len(fields) < 3 {
		return Route{}, fmt.Errorf("routing: route needs at least 'PREFIX dev N': %q", s)
	}
	p, err := pkt.ParsePrefix(fields[0])
	if err != nil {
		return Route{}, fmt.Errorf("routing: bad prefix %q: %w", fields[0], err)
	}
	r := Route{Prefix: p}
	i := 1
	for i < len(fields) {
		switch fields[i] {
		case "dev":
			if i+1 >= len(fields) {
				return Route{}, fmt.Errorf("routing: dev needs an argument")
			}
			var idx int32
			if _, err := fmt.Sscanf(fields[i+1], "%d", &idx); err != nil {
				return Route{}, fmt.Errorf("routing: bad device %q", fields[i+1])
			}
			r.NextHop.IfIndex = idx
			i += 2
		case "via":
			if i+1 >= len(fields) {
				return Route{}, fmt.Errorf("routing: via needs an argument")
			}
			gw, err := pkt.ParseAddr(fields[i+1])
			if err != nil {
				return Route{}, fmt.Errorf("routing: bad gateway %q: %w", fields[i+1], err)
			}
			r.NextHop.Gateway = gw
			i += 2
		case "metric":
			if i+1 >= len(fields) {
				return Route{}, fmt.Errorf("routing: metric needs an argument")
			}
			if _, err := fmt.Sscanf(fields[i+1], "%d", &r.NextHop.Metric); err != nil {
				return Route{}, fmt.Errorf("routing: bad metric %q", fields[i+1])
			}
			i += 2
		default:
			return Route{}, fmt.Errorf("routing: unknown keyword %q", fields[i])
		}
	}
	return r, nil
}
