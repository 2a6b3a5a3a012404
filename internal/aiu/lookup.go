package aiu

import (
	"time"

	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// Lane is one packet's slot in a gate lookup (Resolve). The caller sets
// P and C; Resolve fills Inst. The remaining fields are Resolve's own
// per-packet scratch, so a caller that keeps its lanes (a forwarding
// worker's vector, or one lane on the stack) makes the lookup
// allocation-free.
type Lane struct {
	// P is the packet. A nil P is skipped: a packet that already reached
	// its verdict earlier in the walk.
	P *pkt.Packet
	// C receives the packet's classifier cost accounting (nil: none).
	C *cycles.Counter
	// Inst is the result: the instance bound to P's flow at the gate,
	// nil when none is.
	Inst pcu.Instance

	pending bool // no current FIX: the flow table must be probed
	dup     bool // a later first packet of a flow another lane misses on
	rec     *FlowRecord
	gen     uint64
}

// LookupGate is the gate macro's entry point (§3.2) for one packet:
// return the plugin instance bound to the packet's flow at the gate and
// the flow record. It is the cascade over a vector of one.
//
//eisr:fastpath
//eisr:allow(snapdiscipline) deliberate second binds load: a stale FIX falls through to Resolve, which reads a (possibly different) record's binds, each load generation-guarded
func (a *AIU) LookupGate(p *pkt.Packet, gate pcu.Type, now time.Time, c *cycles.Counter) (pcu.Instance, *FlowRecord) {
	slot, ok := a.Slot(gate)
	if !ok {
		return nil, nil
	}
	l := [1]Lane{{P: p, C: c}}
	if !l[0].FIX(slot) {
		a.Resolve(l[:], slot, now)
	}
	rec, _ := p.FIX.(*FlowRecord)
	return l[0].Inst, rec
}

// FIX is the gate macro proper and the cascade's first step: it
// resolves the lane at the gate whose flow-record slot is slot (Slot)
// with one load through the FIX cached in the packet, and reports
// whether that served. The generation captured with the FIX guards the
// load (as in BindIfCurrent) against the record having been recycled
// for a different flow since — oldest-first recycling, PurgeIdle,
// flushes; a lane it cannot serve is left without a FIX, which is what
// Resolve looks for.
//
//eisr:fastpath
func (l *Lane) FIX(slot int) bool {
	p := l.P
	rec, _ := p.FIX.(*FlowRecord)
	if rec == nil {
		return false
	}
	l.C.Access(1) // one indirect load through the FIX
	// BindIfCurrent's guarded load, open-coded so the macro inlines into
	// the gate walk.
	binds := rec.binds.Load()
	if rec.gen.Load() != p.FIXGen {
		p.FIX = nil
		return false
	}
	l.Inst = (*binds)[slot].Instance
	return true
}

// Resolve completes the cascade for every live lane whose packet has no
// FIX after the FIX step: the flow table, then first-packet
// classification, which installs a flow record so later packets take
// the faster paths. Every packet arrives with its flow hash (p.Hash,
// computed once when its key was parsed), so no pass hashes. It runs in
// passes so a vector amortizes what a single packet pays: the shard
// read lock is taken once per contiguous same-shard run instead of once
// per packet — with hash steering a worker's whole vector maps to one
// shard.
//
//eisr:fastpath
//eisr:allow(snapdiscipline) one generation-guarded binds load per packet (not per invocation), each guarded by BindIfCurrent
func (a *AIU) Resolve(lanes []Lane, slot int, now time.Time) {
	// Pass 1: keys.
	for i := range lanes {
		l := &lanes[i]
		p := l.P
		l.pending, l.dup, l.rec = p != nil && p.FIX == nil, false, nil
		if !l.pending {
			continue
		}
		l.Inst = nil
		if !p.KeyValid {
			k, err := pkt.ExtractKey(p.Data, p.InIf)
			if err != nil {
				l.pending = false
				continue
			}
			p.SetKey(k)
		}
		l.C.FnPointer() // the index-hash function-pointer load of Table 2
	}
	// Pass 2: flow-table probes, one shard read-lock per contiguous
	// same-shard run (lanes resolved by their FIX do not break a run —
	// they touch no shard). The generation is captured under the lock,
	// so a record evicted before its binds are read is detected; a hit
	// binds (generation-guarded, FIX cached in the packet) right away.
	t := a.flows
	anyMiss, left := false, false
	var cached uint64
	i := 0
	for i < len(lanes) {
		if !lanes[i].pending {
			i++
			continue
		}
		sh := t.shardFor(lanes[i].P.Hash)
		last := i
		for j := i + 1; j < len(lanes); j++ {
			if !lanes[j].pending {
				continue
			}
			if t.shardFor(lanes[j].P.Hash) != sh {
				break
			}
			last = j
		}
		var runHits, runMisses uint64
		sh.mu.RLock()
		for k := i; k <= last; k++ {
			l := &lanes[k]
			if !l.pending {
				continue
			}
			// A vector can carry several first packets of one brand-new
			// flow. The first one misses here and classifies in pass 3;
			// its followers must not also walk to a miss — one at a time
			// they would have hit the record the first packet inserts, so
			// they are marked and resolved after that insert (pass 3)
			// through the ordinary table lookup. The scan only runs once
			// a miss exists, so a hit-only vector pays nothing.
			if anyMiss {
				for j := 0; j < k; j++ {
					o := &lanes[j]
					if o.pending && o.rec == nil && o.P.Hash == l.P.Hash && o.P.Key == l.P.Key {
						l.dup = true
						break
					}
				}
				if l.dup {
					continue
				}
			}
			ri, keys := sh.find(&l.P.Key, l.P.Hash, l.C)
			t.telKeys.Observe(keys)
			if ri == noRec {
				runMisses++
				anyMiss, left = true, true
				continue
			}
			runHits++
			l.rec = sh.rec(ri)
			l.rec.touch(now)
			l.gen = l.rec.gen.Load()
			if b := l.rec.BindIfCurrent(slot, l.gen); b != nil {
				l.P.FIX, l.P.FIXGen = l.rec, l.gen
				l.Inst, l.pending = b.Instance, false
				cached++
			} else {
				left = true // evicted since it was found: classify below
			}
		}
		sh.mu.RUnlock()
		if runHits > 0 {
			sh.hits.Add(runHits)
		}
		if runMisses > 0 {
			sh.misses.Add(runMisses)
		}
		i = last + 1
	}
	if cached > 0 {
		a.cachedLookups.Add(cached)
	}
	if !left {
		return
	}
	// Pass 3: classify the misses, in lane order, so a marked duplicate
	// always runs after the packet that inserts its flow's record and
	// finds it with a plain lookup.
	cached = 0
	for i := range lanes {
		l := &lanes[i]
		if !l.pending {
			continue
		}
		p := l.P
		if l.dup {
			if rec, gen := t.lookup(&p.Key, p.Hash, now, l.C); rec != nil {
				if b := rec.BindIfCurrent(slot, gen); b != nil {
					p.FIX, p.FIXGen = rec, gen
					cached++
					l.Inst = b.Instance
					continue
				}
			}
		}
		// A miss, or a record evicted since it was found: classify.
		l.Inst, _ = a.classifyAndInsert(p, slot, now, l.C)
	}
	if cached > 0 {
		a.cachedLookups.Add(cached)
	}
}
