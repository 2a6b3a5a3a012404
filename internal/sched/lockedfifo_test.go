package sched

import (
	"sync"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

// TestLockedFIFOEnqueueRacingDequeue: a Dequeue racing an Enqueue may
// miss the packet, but the packet is never stranded — the next Dequeue
// returns it, and then the queue reads empty.
func TestLockedFIFOEnqueueRacingDequeue(t *testing.T) {
	q := NewLockedFIFO(4)
	p := mkPkt(100)
	for round := 0; round < 2000; round++ {
		done := make(chan error)
		go func() { done <- q.Enqueue(p) }()
		got := q.Dequeue()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got == nil {
			got = q.Dequeue()
		}
		if got != p {
			t.Fatalf("round %d: the enqueued packet was stranded", round)
		}
		if q.Dequeue() != nil || q.Len() != 0 {
			t.Fatalf("round %d: queue not empty after its one packet left", round)
		}
	}
}

// TestLockedFIFOConcurrentProducers: producers enqueue while a consumer
// drains; once they are done, the consumer's next Dequeues return every
// packet not yet taken, each once.
func TestLockedFIFOConcurrentProducers(t *testing.T) {
	const producers, each = 4, 500
	q := NewLockedFIFO(producers * each)
	seen := make(map[*pkt.Packet]bool)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				if err := q.Enqueue(mkPkt(64)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	stopped := make(chan struct{})
	go func() { wg.Wait(); close(stopped) }()
	take := func() bool {
		p := q.Dequeue()
		if p == nil {
			return false
		}
		if seen[p] {
			t.Fatal("a packet was dequeued twice")
		}
		seen[p] = true
		return true
	}
	for running := true; running; {
		select {
		case <-stopped:
			running = false
		default:
			take()
		}
	}
	for take() {
	}
	if len(seen) != producers*each || q.Len() != 0 {
		t.Errorf("dequeued %d of %d packets, %d left", len(seen), producers*each, q.Len())
	}
}
