package aiu

import (
	"strings"
	"testing"

	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// A filter-table rebuild with an unknown BMP kind must fail the build,
// not panic the data path (the old code called bmp.MustNew-style and
// took down the router on the first classify after a bad config).
func TestBuildDAGBadKindErrors(t *testing.T) {
	// The filter needs a concrete prefix: an all-wildcard level never
	// instantiates a BMP table, so it cannot surface the bad kind.
	recs := mkRecords([]Filter{MustParseFilter("<10.0.0.0/8, *, *, *, *, *>")})
	_, err := buildDAG(recs, dagConfig{bmpKind: bmp.Kind("bogus")})
	if err == nil {
		t.Fatal("buildDAG accepted a bogus BMP kind")
	}
	if !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("error %q does not identify the rebuild", err)
	}
}

// An AIU constructed with a bad kind fails Bind up front — the control
// request errors instead of arming a rebuild that can never succeed.
func TestBindFailsFastOnBadKind(t *testing.T) {
	a := New(Config{BMPKind: bmp.Kind("bogus")}, pcu.TypeSched)
	inst := &testInstance{name: "i0"}
	if _, err := a.Bind(pcu.TypeSched, MatchAll(), inst, nil); err == nil {
		t.Fatal("Bind accepted a bogus BMP kind")
	}
	if got, _ := a.Table(pcu.TypeSched); got != nil && len(got.Records()) != 0 {
		t.Fatal("failed Bind mutated the filter table")
	}
}

// A rebuild failure is remembered: lookups return no match (default
// path) without retrying the broken build per packet, and the next
// control-path mutation re-arms the rebuild.
func TestRebuildErrorCachedUntilNextMutation(t *testing.T) {
	a := New(Config{BMPKind: bmp.KindBSPL}, pcu.TypeSched)
	inst := &testInstance{name: "i0"}
	// Concrete prefix so the rebuild must instantiate a BMP table (an
	// all-wildcard table rebuilds fine under any kind).
	if _, err := a.Bind(pcu.TypeSched, MustParseFilter("<10.0.0.0/8, *, *, *, *, *>"), inst, nil); err != nil {
		t.Fatal(err)
	}
	k := pkt.Key{Src: pkt.AddrV4(0x0a000001), Dst: pkt.AddrV4(0x14000001)}
	if rec := a.ClassifyKey(pcu.TypeSched, k, nil); rec == nil || rec.Instance != inst {
		t.Fatalf("healthy classify = %v", rec)
	}

	// Corrupt the config underneath a dirty table — the next classify
	// must degrade, not panic.
	a.mu.Lock()
	a.cfg.BMPKind = bmp.Kind("bogus")
	ft := a.table(pcu.TypeSched)
	ft.dirty = true
	a.mu.Unlock()
	if rec := a.ClassifyKey(pcu.TypeSched, k, nil); rec != nil {
		t.Fatalf("classify against a broken table matched %v", rec)
	}
	a.mu.RLock()
	if ft.buildErr == nil || ft.dirty {
		t.Fatalf("rebuild failure not cached: err=%v dirty=%v", ft.buildErr, ft.dirty)
	}
	a.mu.RUnlock()
	// Repeated lookups hit the cached error (no retry storm) and stay
	// on the default path.
	for i := 0; i < 3; i++ {
		if rec := a.ClassifyKey(pcu.TypeSched, k, nil); rec != nil {
			t.Fatalf("classify %d matched against broken table", i)
		}
	}

	// Repairing the config and mutating the table re-arms the rebuild.
	a.mu.Lock()
	a.cfg.BMPKind = bmp.KindBSPL
	a.mu.Unlock()
	inst2 := &testInstance{name: "i1"}
	if _, err := a.Bind(pcu.TypeSched, MustParseFilter("<10.0.0.0/8, *, *, *, 9, *>"), inst2, nil); err != nil {
		t.Fatal(err)
	}
	if rec := a.ClassifyKey(pcu.TypeSched, k, nil); rec == nil {
		t.Fatal("classify did not recover after repair")
	}
}
