package netio

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// TestUnderBufferedLinkCountsKernelDrops floods a link whose receive
// buffer is 16 KB and whose RX goroutine has not started, so the
// kernel drops most of the flood at the socket. Every datagram sent is
// then either delivered to the interface or counted as a kernel
// rcvbuf drop, in LinkStats and in eisr_drops_total alike: the residual
// is zero.
func TestUnderBufferedLinkCountsKernelDrops(t *testing.T) {
	const want, sent = 16 << 10, 400
	tel := telemetry.New()
	ifc, l := newLink(t, netdev.Config{Name: "thin0"}, Config{Tel: tel, rcvbuf: want})
	if _, err := SocketDrops(l.conn); errors.Is(err, errors.ErrUnsupported) {
		t.Skip(err)
	}
	info := l.LinkInfo()
	if info.RcvbufRequested != want || (info.RcvbufGranted != 0 && info.RcvbufGranted < want) {
		t.Fatalf("receive buffer requested %d, granted %d; want %d requested, at least that granted",
			info.RcvbufRequested, info.RcvbufGranted, want)
	}
	src := dialTo(t, l)
	data := buildUDP(t, []byte("flood"))
	for i := 0; i < sent; i++ {
		if _, err := src.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	l.Start()

	accounted := func() (delivered, dropped uint64) {
		return ifc.Stats().RxPackets, l.Stats().RxDropRcvbuf
	}
	deadline := time.Now().Add(5 * time.Second)
	delivered, dropped := accounted()
	for delivered+dropped != sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		delivered, dropped = accounted()
	}
	l.Stop()
	if dropped == 0 || delivered == 0 {
		t.Fatalf("delivered %d, kernel dropped %d of %d: the flood should overflow a 16 KB buffer, not all of it",
			delivered, dropped, sent)
	}
	if residual := int64(sent) - int64(delivered) - int64(dropped); residual != 0 {
		t.Fatalf("sent %d = delivered %d + rcvbuf drops %d + residual %d; want a zero residual (interface %+v, link %+v)",
			sent, delivered, dropped, residual, ifc.Stats(), l.Stats())
	}
	if s := ifc.Stats(); s.RxDrops != 0 {
		t.Errorf("the interface dropped %d: the loss belongs to the kernel alone", s.RxDrops)
	}
	series := `eisr_drops_total{layer="kernel",iface="thin0",reason="rcvbuf"}`
	if got := tel.CounterValue(series); got != dropped {
		t.Errorf("%s = %d after Stop, LinkStats.RxDropRcvbuf = %d", series, got, dropped)
	}
}

// TestRcvbufClampJournaled: a request the kernel cannot grant in full
// is journaled with both sizes.
func TestRcvbufClampJournaled(t *testing.T) {
	tel := telemetry.New()
	tel.EnableJournal(64)
	_, l := newLink(t, netdev.Config{Name: "fat0"}, Config{Tel: tel, rcvbuf: 1 << 30})
	info := l.LinkInfo()
	if info.RcvbufGranted == 0 {
		t.Skip("the platform does not report the granted receive buffer")
	}
	if info.RcvbufGranted >= info.RcvbufRequested {
		t.Skipf("the kernel granted %d B of a 1 GiB request", info.RcvbufGranted)
	}
	evs := tel.Journal().Snapshot(0, 0)
	for _, ev := range evs {
		if ev.Kind == telemetry.EvRcvbufClamped && strings.HasPrefix(ev.Detail, "fat0 ") {
			return
		}
	}
	t.Errorf("no %s event for a clamped request: %+v", telemetry.EvRcvbufClamped, evs)
}

func TestWindow(t *testing.T) {
	for _, c := range []struct {
		n, limit int
		granted  []int
		want     int
	}{
		{36, 256, nil, 256},
		{36, 256, []int{0}, 256},
		{36, 256, []int{8 << 20, 2 << 20}, 256},
		{36, 256, []int{8 << 20, 212992}, 212992 * 3 / 4 / DatagramTruesize(36)},
		{1500, 256, []int{100}, 1},
	} {
		if got := Window(c.n, c.limit, c.granted...); got != c.want {
			t.Errorf("Window(%d, %d, %v) = %d, want %d", c.n, c.limit, c.granted, got, c.want)
		}
	}
}
