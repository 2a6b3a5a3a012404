package netio

// Overhead guard (run by `make bench-smoke`): the steady-state wire
// paths must not allocate per packet. RX: deliver — strip the
// encapsulation, hand the datagram to the interface's Receive (mbuf
// from the pool, copy, reset, enqueue, count); the poller releases the
// packet back to the pool. TX: TransmitWire — a send scratch from the
// pool and one socket write. The alloc assertions run in every
// `go test`; the timing log is gated behind EISR_BENCH_SMOKE=1 like the
// other overhead guards.

import (
	"net"
	"os"
	"testing"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
)

// newRxRig builds a link whose read buffer holds a wire datagram, ready
// for repeated deliver calls.
func newRxRig(tb testing.TB) (*netdev.Interface, *UDPLink, int) {
	tb.Helper()
	ifc := netdev.NewInterface(0, netdev.Config{})
	l, err := NewUDPLink(ifc, Config{Local: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(l.Stop)
	n := copy(l.rxBuf, buildUDP(tb, []byte("steady-state")))
	return ifc, l, n
}

func TestNetioRxDeliverZeroAlloc(t *testing.T) {
	ifc, l, n := newRxRig(t)
	allocs := testing.AllocsPerRun(1000, func() {
		l.deliver(n)
		p := ifc.Poll()
		if p == nil {
			t.Fatal("deliver did not reach the ring")
		}
		p.ReleaseBuf()
	})
	if allocs != 0 {
		t.Fatalf("RX deliver allocated %v per packet", allocs)
	}
}

// newTxRig builds a link aimed at a live sink socket so wire writes
// succeed. TransmitWire writes on the caller's goroutine, so the link
// need not be started.
func newTxRig(tb testing.TB) (*UDPLink, *pkt.Packet) {
	tb.Helper()
	ifc := netdev.NewInterface(0, netdev.Config{})
	l, err := NewUDPLink(ifc, Config{Local: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(l.Stop)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sink.Close() })
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		tb.Fatal(err)
	}
	p := &pkt.Packet{Data: buildUDP(tb, []byte("steady-state"))}
	return l, p
}

func TestNetioTxZeroAlloc(t *testing.T) {
	l, p := newTxRig(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := l.TransmitWire(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TX path allocated %v per packet", allocs)
	}
	if s := l.Stats(); s.TxErrors != 0 || s.TxPackets == 0 {
		t.Fatalf("wire writes failed during the guard: %+v", s)
	}
}

func BenchmarkNetioRxDeliver(b *testing.B) {
	ifc, l, n := newRxRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.deliver(n)
		if p := ifc.Poll(); p != nil {
			p.ReleaseBuf()
		}
	}
}

func BenchmarkNetioTx(b *testing.B) {
	l, p := newTxRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.TransmitWire(p)
	}
}

// The bench-smoke form: assert 0 allocs under the benchmark harness and
// log the per-packet cost of both wire paths.
func TestBenchSmokeNetioOverhead(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("timing guard; run via make bench-smoke (EISR_BENCH_SMOKE=1)")
	}
	rx := testing.Benchmark(BenchmarkNetioRxDeliver)
	if rx.AllocsPerOp() != 0 {
		t.Fatalf("netio RX deliver: %d allocs/op, want 0", rx.AllocsPerOp())
	}
	t.Logf("netio RX deliver: %.1f ns/op, %d allocs/op",
		float64(rx.T.Nanoseconds())/float64(rx.N), rx.AllocsPerOp())

	tx := testing.Benchmark(BenchmarkNetioTx)
	if tx.AllocsPerOp() != 0 {
		t.Fatalf("netio TX: %d allocs/op, want 0", tx.AllocsPerOp())
	}
	t.Logf("netio TX (scratch+write): %.1f ns/op, %d allocs/op",
		float64(tx.T.Nanoseconds())/float64(tx.N), tx.AllocsPerOp())
}
