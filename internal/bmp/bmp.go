// Package bmp implements the best-matching-prefix (longest-prefix match)
// algorithms the paper uses as the address-level match functions of the
// DAG classifier and as the routing lookup. The paper ships two BMP
// plugins — "one is based on the slower but freely available PATRICIA
// algorithm, and the second is based on the patented binary search on
// prefix length [Waldvogel et al., SIGCOMM'97] algorithm" — and cites
// controlled prefix expansion [Srinivasan & Varghese, SIGMETRICS'98] as
// the state of the art. All three are implemented here, plus a linear
// scan that serves as the brute-force reference for property tests and as
// the O(n) baseline in scaling benchmarks. CPE, laid out as a
// popcount-compressed trie read in at most four levels, is the routing
// table's default; BSPL is the classifier's, whose many tiny tables
// would each waste a CPE directory.
//
// Every implementation satisfies Table and threads a cycles.Counter so the
// classifier can reproduce the paper's Table 2 memory-access accounting.
package bmp

import (
	"fmt"
	"sort"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
)

// Table is a longest-prefix-match table mapping prefixes to opaque
// values. Implementations are not safe for concurrent mutation; the AIU
// serializes control-path updates (data-path lookups against a quiescent
// table are safe from multiple goroutines).
type Table interface {
	// Insert adds or replaces the value for prefix p.
	Insert(p pkt.Prefix, v any)
	// Delete removes prefix p, reporting whether it was present.
	Delete(p pkt.Prefix) bool
	// Lookup finds the longest prefix containing a. It returns the
	// stored value and the matched prefix. The counter, if non-nil,
	// accumulates the memory accesses of the lookup.
	Lookup(a pkt.Addr, c *cycles.Counter) (v any, p pkt.Prefix, ok bool)
	// Len returns the number of installed prefixes.
	Len() int
	// Name identifies the algorithm for benchmarks and plugin listings.
	Name() string
}

// Kind names a BMP algorithm for construction by configuration.
type Kind string

// The available algorithms.
const (
	KindLinear   Kind = "linear"
	KindPatricia Kind = "patricia"
	KindBSPL     Kind = "bspl"
	KindCPE      Kind = "cpe"
)

// New constructs a table of the given kind.
func New(kind Kind) (Table, error) {
	switch kind {
	case KindLinear:
		return NewLinear(), nil
	case KindPatricia:
		return NewPatricia(), nil
	case KindBSPL:
		return NewBSPL(), nil
	case KindCPE:
		return NewCPE(), nil
	default:
		return nil, fmt.Errorf("bmp: unknown algorithm %q", kind)
	}
}

// Linear is the brute-force reference: a sorted scan over all prefixes.
// Lookup is O(n) with one memory access charged per examined prefix —
// exactly the behaviour the paper attributes to "typical filter
// algorithms used in existing implementations".
type Linear struct {
	// prefixes kept sorted by descending length so the first hit is the
	// longest match.
	prefixes []linEntry
}

type linEntry struct {
	p pkt.Prefix
	v any
}

// NewLinear returns an empty linear-scan table.
func NewLinear() *Linear { return &Linear{} }

// Name implements Table.
func (l *Linear) Name() string { return string(KindLinear) }

// Len implements Table.
func (l *Linear) Len() int { return len(l.prefixes) }

// Insert implements Table.
func (l *Linear) Insert(p pkt.Prefix, v any) {
	p = pkt.PrefixFrom(p.Addr, p.Len) // canonicalize
	for i := range l.prefixes {
		if l.prefixes[i].p == p {
			l.prefixes[i].v = v
			return
		}
	}
	l.prefixes = append(l.prefixes, linEntry{p, v})
	sort.SliceStable(l.prefixes, func(i, j int) bool {
		return l.prefixes[i].p.Len > l.prefixes[j].p.Len
	})
}

// Delete implements Table.
func (l *Linear) Delete(p pkt.Prefix) bool {
	p = pkt.PrefixFrom(p.Addr, p.Len)
	for i := range l.prefixes {
		if l.prefixes[i].p == p {
			l.prefixes = append(l.prefixes[:i], l.prefixes[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup implements Table.
func (l *Linear) Lookup(a pkt.Addr, c *cycles.Counter) (any, pkt.Prefix, bool) {
	for i := range l.prefixes {
		c.Access(1)
		if l.prefixes[i].p.Contains(a) {
			return l.prefixes[i].v, l.prefixes[i].p, true
		}
	}
	return nil, pkt.Prefix{}, false
}
