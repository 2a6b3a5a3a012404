package bmp

import "github.com/routerplugins/eisr/internal/pkt"

// PrefixVal pairs a prefix with its value for batch application.
type PrefixVal struct {
	Prefix pkt.Prefix
	Val    any
}

// Delta is one batch of route mutations. Adds are applied before Dels;
// callers that need interleaved semantics (add, withdraw, re-add of the
// same prefix) coalesce to the last operation per prefix first.
type Delta struct {
	Adds []PrefixVal
	Dels []pkt.Prefix
}

// Empty reports whether the delta carries no mutations.
func (d Delta) Empty() bool { return len(d.Adds) == 0 && len(d.Dels) == 0 }

// Incremental is implemented by BMP engines that can apply a delta as a
// copy-on-write derivation (PATRICIA, BSPL and CPE): ApplyDelta returns a table that shares all
// untouched structure with the receiver, so update cost scales with the
// affected prefix neighborhood rather than the table size.
//
// The receiver stays valid for concurrent Lookup — exactly what the
// routing table's atomic-snapshot publication needs — but its mutable
// bookkeeping is transferred to the result: after ApplyDelta succeeds,
// the receiver must not be mutated (Insert/Delete) or ApplyDelta'd
// again. The routing table guarantees this by always deriving from the
// latest published snapshot under its mutex.
//
// ok=false means this delta cannot be applied incrementally (for BSPL:
// the set of distinct prefix lengths would change, which invalidates
// every marker's binary-search path; for BSPL and CPE: the receiver has
// pending Insert/Delete mutations); the caller falls back to a full
// rebuild. The receiver is untouched in that case.
type Incremental interface {
	Table
	ApplyDelta(d Delta) (t Table, ok bool)
}
