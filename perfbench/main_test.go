package main

import "testing"

// A packet that no layer counted — such as one a scheduler purged from
// its queue without a drop counter — must show up as unaccounted.
func TestLedgerFindsUncountedLoss(t *testing.T) {
	l := ledger{sent: 10, verified: 7, invalid: 1, netdev: 1}
	if u, f := l.unaccounted(), l.failed(); u != 1 || f != 3 {
		t.Errorf("unaccounted %d failed %d, want 1 and 3", u, f)
	}
	l.ipcore = 1
	if u := l.unaccounted(); u != 0 {
		t.Errorf("every loss counted, unaccounted %d", u)
	}
}
