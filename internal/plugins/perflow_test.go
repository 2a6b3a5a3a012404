package plugins

import (
	"testing"

	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/pcu"
)

// TestPurgeIdle: purge-idle reclaims exactly the empty flow queues, and
// a flow whose queue it reclaimed gets a fresh one on its next packet
// instead of being refused by the queue its flow record still names.
func TestPurgeIdle(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})
			purge := func() int {
				msg := &pcu.Message{Kind: pcu.MsgCustom, Verb: "purge-idle", Instance: inst}
				if err := rg.reg.Send(plugin, msg); err != nil {
					t.Fatal(err)
				}
				return msg.Reply.(int)
			}
			drainer := inst.(ipcore.Drainer)
			for _, src := range []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"} {
				if !rg.r.Forward(udp(t, src, 1, 100)) {
					t.Fatalf("forward from %s failed", src)
				}
			}
			for drainer.Backlog() > 1 {
				rg.r.TxDrain(1, 1)
			}
			if n := purge(); n != 2 {
				t.Fatalf("purged %d idle queues, want 2", n)
			}
			if got := len(rg.shares(t, plugin, inst)); got != 1 {
				t.Fatalf("%d queues after purge, want the backlogged one", got)
			}
			for _, src := range []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"} {
				if !rg.r.Forward(udp(t, src, 1, 100)) {
					t.Fatalf("forward from %s after purge failed", src)
				}
			}
			if got := len(rg.shares(t, plugin, inst)); got != 3 {
				t.Errorf("%d queues after the flows returned, want 3", got)
			}
			if got := drainer.Backlog(); got != 4 {
				t.Errorf("backlog %d, want 4", got)
			}
		})
	}
}
