package ipcore

import (
	"testing"

	"github.com/routerplugins/eisr/internal/netdev"
)

// AddInterface gives the interface one RX ring per worker and an mbuf
// pool that covers every ring plus each worker's vector: a packet a
// worker has polled sits in its vector while its ring keeps turning
// over, and its receive buffer has to survive that.
func TestAddInterfaceReservesWorkerQueueMbufs(t *testing.T) {
	const workers = 4
	rig := newParallelRig(t, workers)
	if got, want := rig.in.BufDepth(), workers*(parallelRing+DefaultBatchSize)+1; got != want {
		t.Errorf("4-worker router BufDepth = %d, want %d (workers×(ring + vector) + 1)", got, want)
	}

	// A single-threaded router has one ring and one vector.
	single := newRig(t, ModePlugin, nil)
	ifc := netdev.NewInterface(7, netdev.Config{})
	single.r.AddInterface(ifc)
	if got, want := ifc.BufDepth(), 512+DefaultBatchSize+1; got != want {
		t.Errorf("single-threaded BufDepth = %d, want %d", got, want)
	}
}
