package aiu

import (
	"fmt"
	"sort"
	"strings"

	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// FilterRecord is an installed filter in one gate's filter table: the
// filter specification, the plugin instance bound to it, and an opaque
// pointer the plugin can fill with private hard state associated with the
// filter (§5.1.1: "these filter records contain, in addition to a pointer
// to the correct plugin instance, an opaque pointer that can be filled in
// by the plugin").
type FilterRecord struct {
	ID       uint64
	Gate     pcu.Type
	Filter   Filter
	Instance pcu.Instance
	// Private is plugin-owned hard state tied to the filter (e.g. an
	// IPsec security association, a scheduler reservation).
	Private any

	seq uint64 // installation order, breaks specificity ties
	// specIdx is the record's spec rank within its table, used by the
	// inter-DAG sharing optimization to map results between tables
	// holding identical filter sets.
	specIdx int
}

// instance returns the record's plugin instance; a nil record (no
// filter matched) has none.
//
//eisr:fastpath
func (fr *FilterRecord) instance() pcu.Instance {
	if fr == nil {
		return nil
	}
	return fr.Instance
}

func (fr *FilterRecord) String() string {
	inst := "<nil>"
	if fr.Instance != nil {
		inst = fr.Instance.InstanceName()
	}
	return fmt.Sprintf("#%d %s -> %s", fr.ID, fr.Filter, inst)
}

// dag is one gate's filter table lookup structure: a set-pruning trie
// over the six filter fields in the order <src, dst, proto, sport,
// dport, inif>, with subtree sharing (memoized construction) making it a
// true DAG. Per the paper, the match function at each level is chosen by
// field type: longest-prefix match for addresses (delegated to a bmp
// plugin), range match for ports, exact-with-wildcard for protocol and
// interface.
type dag struct {
	root    *dagNode
	nodes   int // distinct nodes, for memory accounting
	builtOf int // number of filter records at build time
}

const numLevels = 6

type dagNode struct {
	level int // 0..5; 6 == leaf
	leaf  *FilterRecord

	// Address levels: per-family longest-prefix edge tables whose
	// values are *dagNode children, plus the '*' fallback edge.
	v4, v6 bmp.Table
	wild   *dagNode

	// Proto/interface levels: exact edges (key widened to int64) with
	// the same wildcard fallback.
	exact map[int64]*dagNode

	// Port levels: elementary intervals. portLos[i] is the lower bound
	// of interval i, which extends to portLos[i+1]-1 (the last interval
	// to 65535); portChildren[i] is the subtree for that interval, nil
	// when no filter covers it.
	portLos      []uint16
	portChildren []*dagNode
}

// dagConfig controls construction.
type dagConfig struct {
	// bmpKind selects the BMP match-function plugin for address levels.
	bmpKind bmp.Kind
	// collapse enables the paper's node-collapsing optimization:
	// levels at which every remaining filter is wildcarded are skipped
	// entirely instead of materializing a chain of single-edge nodes.
	collapse bool
}

// buildDAG constructs the set-pruning DAG for a record set. A non-nil
// error (an unknown BMP kind, surfaced while instantiating an address
// level's match table) leaves no partial DAG behind: the rebuild runs
// on the control path, and the error fails the control request there
// instead of panicking under a packet.
func buildDAG(records []*FilterRecord, cfg dagConfig) (*dag, error) {
	d := &dag{builtOf: len(records)}
	if len(records) == 0 {
		return d, nil
	}
	b := &dagBuilder{cfg: cfg, memo: make(map[string]*dagNode)}
	root, err := b.build(records, 0)
	if err != nil {
		return nil, err
	}
	d.root = root
	d.nodes = b.nodes
	// Force-build the lazily constructed BMP structures now, on the
	// control path, so concurrent data-path lookups never trigger a
	// rebuild (BSPL and CPE rebuild on first lookup).
	for _, t := range b.tables {
		t.Lookup(pkt.AddrV4(0), nil)
	}
	return d, nil
}

type dagBuilder struct {
	cfg    dagConfig
	memo   map[string]*dagNode
	nodes  int
	tables []bmp.Table
}

// memoKey canonically identifies (level, record set) so identical
// subproblems share one node — this sharing is what makes the structure a
// DAG rather than a tree.
func memoKey(records []*FilterRecord, level int) string {
	ids := make([]uint64, len(records))
	for i, r := range records {
		ids[i] = r.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:", level)
	for _, id := range ids {
		fmt.Fprintf(&sb, "%x,", id)
	}
	return sb.String()
}

func (b *dagBuilder) build(records []*FilterRecord, level int) (*dagNode, error) {
	if len(records) == 0 {
		return nil, nil
	}
	if b.cfg.collapse {
		for level < numLevels && allWildAt(records, level) {
			level++
		}
	}
	key := memoKey(records, level)
	if n, ok := b.memo[key]; ok {
		return n, nil
	}
	n := &dagNode{level: level}
	b.memo[key] = n
	b.nodes++
	if level == numLevels {
		n.leaf = bestRecord(records)
		return n, nil
	}
	var err error
	switch level {
	case 0, 1:
		err = b.buildAddrLevel(n, records, level)
	case 2:
		err = b.buildExactLevel(n, records, level, func(r *FilterRecord) (int64, bool) {
			return int64(r.Filter.Proto.Value), !r.Filter.Proto.Wild
		})
	case 3, 4:
		err = b.buildPortLevel(n, records, level)
	case 5:
		err = b.buildExactLevel(n, records, level, func(r *FilterRecord) (int64, bool) {
			return int64(r.Filter.InIf.Index), !r.Filter.InIf.Wild
		})
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

func addrField(r *FilterRecord, level int) AddrSpec {
	if level == 0 {
		return r.Filter.Src
	}
	return r.Filter.Dst
}

func portField(r *FilterRecord, level int) PortRange {
	if level == 3 {
		return r.Filter.SrcPort
	}
	return r.Filter.DstPort
}

func allWildAt(records []*FilterRecord, level int) bool {
	for _, r := range records {
		switch level {
		case 0, 1:
			if !addrField(r, level).Wild {
				return false
			}
		case 2:
			if !r.Filter.Proto.Wild {
				return false
			}
		case 3, 4:
			if !portField(r, level).IsWild() {
				return false
			}
		case 5:
			if !r.Filter.InIf.Wild {
				return false
			}
		}
	}
	return true
}

// buildAddrLevel installs one edge per distinct prefix (per family) and
// the wildcard fallback. Set pruning: the subtree under edge P is built
// from every record whose field accepts all addresses in P — i.e. records
// wildcarded here plus same-family records whose prefix contains P. The
// longest-match choice at lookup time is then always safe.
//
// The containing-prefix set for each edge is found by probing the
// grouped records at every installed prefix length ≤ len(P) (at most 33
// probes for IPv4, 129 for IPv6) instead of scanning all records, so
// construction stays near-linear for the large mostly-host-filter
// populations of the Table 2 experiment.
func (b *dagBuilder) buildAddrLevel(n *dagNode, records []*FilterRecord, level int) error {
	type edge struct {
		p    pkt.Prefix
		subs []*FilterRecord
	}
	edges := map[pkt.Prefix]*edge{}
	var wildRecs []*FilterRecord
	byPrefix := map[pkt.Prefix][]*FilterRecord{}
	lenSeen := [2]map[int]bool{{}, {}}
	for _, r := range records {
		f := addrField(r, level)
		if f.Wild {
			wildRecs = append(wildRecs, r)
			continue
		}
		if _, ok := edges[f.Prefix]; !ok {
			edges[f.Prefix] = &edge{p: f.Prefix}
		}
		byPrefix[f.Prefix] = append(byPrefix[f.Prefix], r)
		fam := 0
		if f.Prefix.Addr.IsV6() {
			fam = 1
		}
		lenSeen[fam][f.Prefix.Len] = true
	}
	famLens := [2][]int{}
	for fam := range lenSeen {
		for l := range lenSeen[fam] {
			famLens[fam] = append(famLens[fam], l)
		}
		sort.Ints(famLens[fam])
	}
	for _, e := range edges {
		fam := 0
		if e.p.Addr.IsV6() {
			fam = 1
		}
		for _, l := range famLens[fam] {
			if l > e.p.Len {
				break
			}
			e.subs = append(e.subs, byPrefix[pkt.PrefixFrom(e.p.Addr, l)]...)
		}
		e.subs = append(e.subs, wildRecs...)
	}
	if len(edges) > 0 {
		// Historically bmp.New failure panicked here, killing the router
		// from a control-path rebuild; now it aborts the build and fails
		// the control request instead.
		mk := func() (bmp.Table, error) {
			t, err := bmp.New(b.cfg.bmpKind)
			if err != nil {
				return nil, fmt.Errorf("aiu: filter-table rebuild: %w", err)
			}
			b.tables = append(b.tables, t)
			return t, nil
		}
		for _, e := range edges {
			child, err := b.build(e.subs, level+1)
			if err != nil {
				return err
			}
			if child == nil {
				continue
			}
			var tab *bmp.Table
			if e.p.Addr.IsV6() {
				tab = &n.v6
			} else {
				tab = &n.v4
			}
			if *tab == nil {
				t, err := mk()
				if err != nil {
					return err
				}
				*tab = t
			}
			(*tab).Insert(e.p, child)
		}
	}
	wild, err := b.build(wildRecs, level+1)
	if err != nil {
		return err
	}
	n.wild = wild
	return nil
}

func (b *dagBuilder) buildExactLevel(n *dagNode, records []*FilterRecord, level int, field func(*FilterRecord) (int64, bool)) error {
	values := map[int64][]*FilterRecord{}
	var wildRecs []*FilterRecord
	for _, r := range records {
		if v, specified := field(r); specified {
			values[v] = append(values[v], r)
		} else {
			wildRecs = append(wildRecs, r)
		}
	}
	for v, subs := range values {
		// Wildcarded records replicate under every specific edge.
		values[v] = append(subs, wildRecs...)
	}
	if len(values) > 0 {
		n.exact = make(map[int64]*dagNode, len(values))
		for v, subs := range values {
			child, err := b.build(subs, level+1)
			if err != nil {
				return err
			}
			if child != nil {
				n.exact[v] = child
			}
		}
	}
	wild, err := b.build(wildRecs, level+1)
	if err != nil {
		return err
	}
	n.wild = wild
	return nil
}

// buildPortLevel partitions 0..65535 into the elementary intervals
// induced by the ranges present, so that every port inside one interval
// sees exactly the same filter subset. This realizes the paper's "for
// port numbers, matching can be done on ranges" with exact semantics even
// for partially overlapping ranges.
func (b *dagBuilder) buildPortLevel(n *dagNode, records []*FilterRecord, level int) error {
	bounds := map[uint16]bool{0: true}
	for _, r := range records {
		pr := portField(r, level)
		bounds[pr.Lo] = true
		if pr.Hi != 65535 {
			bounds[pr.Hi+1] = true
		}
	}
	los := make([]uint16, 0, len(bounds))
	for lo := range bounds {
		los = append(los, lo)
	}
	sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })
	n.portLos = los
	n.portChildren = make([]*dagNode, len(los))
	for i, lo := range los {
		hi := uint16(65535)
		if i+1 < len(los) {
			hi = los[i+1] - 1
		}
		var subs []*FilterRecord
		for _, r := range records {
			pr := portField(r, level)
			if pr.Lo <= lo && pr.Hi >= hi {
				subs = append(subs, r)
			}
		}
		child, err := b.build(subs, level+1)
		if err != nil {
			return err
		}
		n.portChildren[i] = child
	}
	return nil
}

// bestRecord picks the most specific record, breaking ties by
// installation order.
func bestRecord(records []*FilterRecord) *FilterRecord {
	best := records[0]
	for _, r := range records[1:] {
		switch r.Filter.moreSpecific(best.Filter) {
		case 1:
			best = r
		case 0:
			if r.seq < best.seq {
				best = r
			}
		}
	}
	return best
}

// lookup classifies the six-tuple, returning the most specific matching
// filter record or nil. The counter, when armed, reproduces the paper's
// Table 2 accounting: one function-pointer access for the BMP match
// function, one memory access per DAG edge followed, the BMP plugin's own
// probes at each address level, and one access per port-range lookup.
func (d *dag) lookup(k pkt.Key, c *cycles.Counter) *FilterRecord {
	n := d.root
	if n == nil {
		return nil
	}
	c.FnPointer() // the BMP match function pointer (Table 2, row 1)
	for n != nil {
		if n.level == numLevels {
			return n.leaf
		}
		c.Access(1) // following a DAG edge (Table 2, "access to DAG edges")
		n = n.step(k, c)
	}
	return nil
}

func (n *dagNode) step(k pkt.Key, c *cycles.Counter) *dagNode {
	switch n.level {
	case 0, 1:
		a := k.Src
		if n.level == 1 {
			a = k.Dst
		}
		tab := n.v4
		if a.IsV6() {
			tab = n.v6
		}
		if tab != nil {
			if v, _, ok := tab.Lookup(a, c); ok {
				return v.(*dagNode)
			}
		}
		return n.wild
	case 2:
		if n.exact != nil {
			if child, ok := n.exact[int64(k.Proto)]; ok {
				return child
			}
		}
		return n.wild
	case 3, 4:
		p := k.SrcPort
		if n.level == 4 {
			p = k.DstPort
		}
		c.Access(1) // port number lookup (Table 2, "port number lookup")
		i := sort.Search(len(n.portLos), func(i int) bool { return n.portLos[i] > p }) - 1
		if i < 0 {
			return nil
		}
		return n.portChildren[i]
	case 5:
		if n.exact != nil {
			if child, ok := n.exact[int64(k.InIf)]; ok {
				return child
			}
		}
		return n.wild
	default:
		return nil
	}
}
