package netio

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// rmemAlloc reads SK_MEMINFO_RMEM_ALLOC: the bytes the kernel charges
// conn's receive buffer for the datagrams queued on it. It skips the
// test where this build does not read SO_MEMINFO.
func rmemAlloc(t *testing.T, conn *net.UDPConn) uint32 {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var mem meminfo
	var ok bool
	if err := rc.Control(func(fd uintptr) { ok = readMeminfo(fd, &mem) }); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("SO_MEMINFO is not read on this architecture")
	}
	return mem[0]
}

// loopbackPair returns an unread socket with the given receive buffer
// and a socket aimed at it.
func loopbackPair(t *testing.T, rcvbuf int) (sink, src *net.UDPConn) {
	t.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	if _, err := SizeReadBuffer(sink, rcvbuf); err != nil {
		t.Fatal(err)
	}
	src, err = net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return sink, src
}

// TestDatagramTruesizeBoundsTheKernel: what this kernel charges a
// receive buffer per queued datagram never exceeds DatagramTruesize.
func TestDatagramTruesizeBoundsTheKernel(t *testing.T) {
	const queued = 8
	for _, n := range []int{1, 36, 300, 1000, 1500, 1500 + 184, 9000} {
		sink, src := loopbackPair(t, 1<<20)
		for i := 0; i < queued; i++ {
			if _, err := src.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		charged := rmemAlloc(t, sink)
		for charged == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			charged = rmemAlloc(t, sink)
		}
		if per := int(charged) / queued; per == 0 || per > DatagramTruesize(n) {
			t.Errorf("a %d B datagram is charged %d B, DatagramTruesize bounds it at %d", n, per, DatagramTruesize(n))
		}
	}
}

// TestProcUDPDropsMatchesMeminfo: the /proc/net/udp fallback reads the
// same drop count as SO_MEMINFO.
func TestProcUDPDropsMatchesMeminfo(t *testing.T) {
	sink, src := loopbackPair(t, 4<<10)
	for i := 0; i < 200; i++ {
		if _, err := src.Write([]byte("flood")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	drops, err := SocketDrops(sink)
	for err == nil && drops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		drops, err = SocketDrops(sink)
	}
	if err != nil || drops == 0 {
		t.Fatalf("SocketDrops = %d, %v: want drops from a flooded 4 KB buffer", drops, err)
	}
	rc, err := sink.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var st syscall.Stat_t
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.Fstat(int(fd), &st) }); err != nil || serr != nil {
		t.Fatalf("fstat: %v %v", err, serr)
	}
	if got, err := procUDPDrops(st.Ino); err != nil || got != drops {
		t.Errorf("procUDPDrops = %d, %v; SO_MEMINFO says %d", got, err, drops)
	}
	sink.Close()
	if _, err := SocketDrops(sink); err == nil {
		t.Error("SocketDrops on a closed socket did not fail")
	}
}
