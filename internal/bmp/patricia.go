package bmp

import (
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pkt"
)

// Patricia is a path-compressed binary trie — the "slower but freely
// available" BMP plugin of the paper, modeled on the BSD radix tree
// [Sklower 93]. Lookup visits at most one node per bit of divergence and
// charges one memory access per visited node.
//
// Node prefixes are absolute (the full truncated address plus length), so
// each node knows the entire path that leads to it; this keeps splits and
// merges simple.
type Patricia struct {
	root4 *patNode
	root6 *patNode
	n     int
}

type patNode struct {
	prefix pkt.Prefix
	hasVal bool
	val    any
	child  [2]*patNode
}

// NewPatricia returns an empty PATRICIA table.
func NewPatricia() *Patricia { return &Patricia{} }

// Name implements Table.
func (t *Patricia) Name() string { return string(KindPatricia) }

// Len implements Table.
func (t *Patricia) Len() int { return t.n }

func (t *Patricia) rootFor(v6 bool) **patNode {
	if v6 {
		return &t.root6
	}
	return &t.root4
}

// Insert implements Table.
func (t *Patricia) Insert(p pkt.Prefix, v any) {
	p = pkt.PrefixFrom(p.Addr, p.Len)
	root := t.rootFor(p.Addr.IsV6())
	added := false
	*root = patInsert(*root, p, v, &added)
	if added {
		t.n++
	}
}

func patInsert(n *patNode, p pkt.Prefix, v any, added *bool) *patNode {
	if n == nil {
		*added = true
		return &patNode{prefix: p, hasVal: true, val: v}
	}
	cpl := n.prefix.Addr.CommonPrefixLen(p.Addr)
	if cpl > n.prefix.Len {
		cpl = n.prefix.Len
	}
	if cpl > p.Len {
		cpl = p.Len
	}
	if cpl < n.prefix.Len {
		// Split: the new prefix diverges inside this node's path.
		parent := &patNode{prefix: pkt.PrefixFrom(p.Addr, cpl)}
		parent.child[n.prefix.Addr.Bit(cpl)] = n
		if cpl == p.Len {
			parent.hasVal, parent.val = true, v
		} else {
			nn := &patNode{prefix: p, hasVal: true, val: v}
			parent.child[p.Addr.Bit(cpl)] = nn
		}
		*added = true
		return parent
	}
	// n's path is a prefix of p.
	if p.Len == n.prefix.Len {
		if !n.hasVal {
			*added = true
		}
		n.hasVal, n.val = true, v
		return n
	}
	b := p.Addr.Bit(n.prefix.Len)
	n.child[b] = patInsert(n.child[b], p, v, added)
	return n
}

// Delete implements Table.
func (t *Patricia) Delete(p pkt.Prefix) bool {
	p = pkt.PrefixFrom(p.Addr, p.Len)
	root := t.rootFor(p.Addr.IsV6())
	removed := false
	*root = patDelete(*root, p, &removed)
	if removed {
		t.n--
	}
	return removed
}

func patDelete(n *patNode, p pkt.Prefix, removed *bool) *patNode {
	if n == nil {
		return nil
	}
	if n.prefix == p {
		if !n.hasVal {
			return n
		}
		*removed = true
		n.hasVal, n.val = false, nil
		return patCompact(n)
	}
	if n.prefix.Len >= p.Len || !n.prefix.Contains(p.Addr) {
		return n
	}
	b := p.Addr.Bit(n.prefix.Len)
	n.child[b] = patDelete(n.child[b], p, removed)
	if *removed {
		return patCompact(n)
	}
	return n
}

// patCompact removes empty value-less nodes and merges single-child
// value-less interior nodes upward.
func patCompact(n *patNode) *patNode {
	if n.hasVal {
		return n
	}
	var only *patNode
	count := 0
	for _, c := range n.child {
		if c != nil {
			only = c
			count++
		}
	}
	switch count {
	case 0:
		return nil
	case 1:
		return only // child prefixes are absolute, so hoisting is free
	default:
		return n
	}
}

// ApplyDelta implements Incremental. The returned table shares every
// subtree not on a mutated spine with the receiver: each insert or
// delete path-copies only the nodes from the root down to the affected
// prefix (O(depth) clones), so the receiver stays valid for concurrent
// lock-free Lookup while the routing table publishes the result.
func (t *Patricia) ApplyDelta(d Delta) (Table, bool) {
	nt := &Patricia{root4: t.root4, root6: t.root6, n: t.n}
	for _, a := range d.Adds {
		p := pkt.PrefixFrom(a.Prefix.Addr, a.Prefix.Len)
		root := nt.rootFor(p.Addr.IsV6())
		added := false
		*root = patInsertCOW(*root, p, a.Val, &added)
		if added {
			nt.n++
		}
	}
	for _, p := range d.Dels {
		p = pkt.PrefixFrom(p.Addr, p.Len)
		root := nt.rootFor(p.Addr.IsV6())
		removed := false
		*root = patDeleteCOW(*root, p, &removed)
		if removed {
			nt.n--
		}
	}
	return nt, true
}

func patClone(n *patNode) *patNode {
	c := *n
	return &c
}

// patInsertCOW is patInsert with path copying: every node whose value or
// child pointers change is cloned, untouched subtrees are shared.
func patInsertCOW(n *patNode, p pkt.Prefix, v any, added *bool) *patNode {
	if n == nil {
		*added = true
		return &patNode{prefix: p, hasVal: true, val: v}
	}
	cpl := n.prefix.Addr.CommonPrefixLen(p.Addr)
	if cpl > n.prefix.Len {
		cpl = n.prefix.Len
	}
	if cpl > p.Len {
		cpl = p.Len
	}
	if cpl < n.prefix.Len {
		// Split: the fresh parent references n unchanged, so n's subtree
		// stays shared with the old tree.
		parent := &patNode{prefix: pkt.PrefixFrom(p.Addr, cpl)}
		parent.child[n.prefix.Addr.Bit(cpl)] = n
		if cpl == p.Len {
			parent.hasVal, parent.val = true, v
		} else {
			nn := &patNode{prefix: p, hasVal: true, val: v}
			parent.child[p.Addr.Bit(cpl)] = nn
		}
		*added = true
		return parent
	}
	if p.Len == n.prefix.Len {
		if !n.hasVal {
			*added = true
		}
		nn := patClone(n)
		nn.hasVal, nn.val = true, v
		return nn
	}
	b := p.Addr.Bit(n.prefix.Len)
	c := patInsertCOW(n.child[b], p, v, added)
	nn := patClone(n)
	nn.child[b] = c
	return nn
}

// patDeleteCOW is patDelete with path copying. Compaction only ever runs
// on nodes cloned within this call, never on shared ones.
func patDeleteCOW(n *patNode, p pkt.Prefix, removed *bool) *patNode {
	if n == nil {
		return nil
	}
	if n.prefix == p {
		if !n.hasVal {
			return n
		}
		*removed = true
		nn := patClone(n)
		nn.hasVal, nn.val = false, nil
		return patCompact(nn)
	}
	if n.prefix.Len >= p.Len || !n.prefix.Contains(p.Addr) {
		return n
	}
	b := p.Addr.Bit(n.prefix.Len)
	c := patDeleteCOW(n.child[b], p, removed)
	if !*removed {
		return n
	}
	nn := patClone(n)
	nn.child[b] = c
	return patCompact(nn)
}

// under returns the root of the subtree holding every stored prefix
// whose first p.Len bits equal p's, or nil when there is none.
func (t *Patricia) under(p pkt.Prefix) *patNode {
	n := *t.rootFor(p.Addr.IsV6())
	for n != nil && n.prefix.Len < p.Len {
		if !n.prefix.Contains(p.Addr) {
			return nil
		}
		n = n.child[p.Addr.Bit(n.prefix.Len)]
	}
	if n == nil || n.prefix.Addr.CommonPrefixLen(p.Addr) < p.Len {
		return nil
	}
	return n
}

// anyUnder reports whether some stored prefix q whose first p.Len bits
// equal p's satisfies pred, short-circuiting on the first hit. BSPL
// delete uses it to decide whether a marker still has a source.
func (t *Patricia) anyUnder(p pkt.Prefix, pred func(q pkt.Prefix, v any) bool) bool {
	return patAny(t.under(p), pred)
}

func patAny(n *patNode, pred func(pkt.Prefix, any) bool) bool {
	if n == nil {
		return false
	}
	if n.hasVal && pred(n.prefix, n.val) {
		return true
	}
	return patAny(n.child[0], pred) || patAny(n.child[1], pred)
}

// walkFrontier calls fn for the frontier under p: every stored prefix q
// longer than p whose first p.Len bits equal p's, with no stored prefix
// strictly between p and q. BSPL update repairs only these prefixes'
// paths (BSPL.applyAdd).
func (t *Patricia) walkFrontier(p pkt.Prefix, fn func(q pkt.Prefix)) {
	patFrontier(t.under(p), p.Len, fn)
}

func patFrontier(n *patNode, l int, fn func(pkt.Prefix)) {
	if n == nil {
		return
	}
	if n.hasVal && n.prefix.Len > l {
		fn(n.prefix)
		return
	}
	patFrontier(n.child[0], l, fn)
	patFrontier(n.child[1], l, fn)
}

// Lookup implements Table.
func (t *Patricia) Lookup(a pkt.Addr, c *cycles.Counter) (any, pkt.Prefix, bool) {
	return t.lookupMax(a, a.BitLen(), c)
}

// lookupMax finds the longest matching prefix of length at most maxLen.
// The BSPL builder uses it to precompute marker BMPs.
func (t *Patricia) lookupMax(a pkt.Addr, maxLen int, c *cycles.Counter) (any, pkt.Prefix, bool) {
	n := *t.rootFor(a.IsV6())
	var best *patNode
	for n != nil {
		c.Access(1)
		if n.prefix.Len > maxLen || !n.prefix.Contains(a) {
			break
		}
		if n.hasVal {
			best = n
		}
		if n.prefix.Len == a.BitLen() {
			break
		}
		n = n.child[a.Bit(n.prefix.Len)]
	}
	if best == nil {
		return nil, pkt.Prefix{}, false
	}
	return best.val, best.prefix, true
}
