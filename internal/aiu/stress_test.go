package aiu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// stressInstance is a plugin instance that counts every callback it
// receives; all counters are atomic so the race detector only sees the
// kernel's own synchronization.
type stressInstance struct {
	name    string
	handled atomic.Uint64
	removed atomic.Uint64
}

func (s *stressInstance) InstanceName() string             { return s.name }
func (s *stressInstance) HandlePacket(p *pkt.Packet) error { s.handled.Add(1); return nil }
func (s *stressInstance) FilterRemoved(rec *FilterRecord)  { s.removed.Add(1) }

// TestConcurrentLookupBindUnbind races the data path (LookupGate cache
// hits, FIX dispatch) against the control path (Bind/Unbind/
// UnbindInstance — the register/deregister-instance machinery) and the
// soft-state janitor (PurgeIdle). Run under -race it checks the
// RWMutex/atomic split in the flow table and the unlock-before-notify
// discipline the lockscope analyzer enforces statically.
func TestConcurrentLookupBindUnbind(t *testing.T) {
	a := New(Config{InitialFlows: 16, MaxFlows: 64},
		pcu.TypeSecurity, pcu.TypeSched)
	drr := &stressInstance{name: "drr0"}
	if _, err := a.Bind(pcu.TypeSched, MatchAll(), drr, nil); err != nil {
		t.Fatal(err)
	}

	// 64 distinct flows, packet bytes prebuilt so workers only exercise
	// the kernel, not the packet builder.
	datas := make([][]byte, 64)
	for i := range datas {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.AddrV4(0x0a000001 + uint32(i)), Dst: pkt.AddrV4(0x14000002),
			SrcPort: uint16(1000 + i), DstPort: 53, Payload: []byte("x"),
		})
		if err != nil {
			t.Fatal(err)
		}
		datas[i] = data
	}

	const (
		lookupWorkers  = 4
		lookupIters    = 400
		controlWorkers = 2
		controlIters   = 150
	)
	var wg sync.WaitGroup

	for w := 0; w < lookupWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < lookupIters; i++ {
				p, err := pkt.NewPacket(datas[(w*131+i)%len(datas)], 0)
				if err != nil {
					t.Error(err)
					return
				}
				now := time.Now()
				// First gate: miss → classify+insert, hit → cache read.
				a.LookupGate(p, pcu.TypeSecurity, now, nil)
				// Second gate rides the FIX; dispatch to the bound instance.
				if inst, _ := a.LookupGate(p, pcu.TypeSched, now, nil); inst != nil {
					if err := inst.HandlePacket(p); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	for w := 0; w < controlWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec := fmt.Sprintf("10.0.0.%d/31, *, UDP, *, *, *", 2*w)
			for i := 0; i < controlIters; i++ {
				inst := &stressInstance{name: fmt.Sprintf("sec-%d-%d", w, i)}
				rec, err := a.Bind(pcu.TypeSecurity, MustParseFilter(spec), inst, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := a.Unbind(rec); err != nil {
						t.Error(err)
						return
					}
				} else if n := a.UnbindInstance(inst); n != 1 {
					t.Errorf("UnbindInstance removed %d records, want 1", n)
					return
				}
			}
		}(w)
	}

	// Janitor: recycle idle flows and read both stat surfaces while the
	// table churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			a.FlowTable().PurgeIdle(time.Now())
			a.FlowTable().Stats()
			a.Stats()
		}
	}()

	wg.Wait()

	if drr.handled.Load() == 0 {
		t.Error("no packets dispatched to the sched instance")
	}
	// Every flow the churn evicted — recycled, purged or flushed by a
	// filter change — is counted exactly once.
	st := a.FlowTable().Stats()
	if st.Live < 0 || st.Alloc > 64 || st.Inserts != st.Recycled+st.Removed+uint64(st.Live) {
		t.Errorf("flow table bookkeeping off the rails: %+v", st)
	}
	if cached, first := a.Stats(); cached+first == 0 {
		t.Error("no lookups recorded")
	}
}
