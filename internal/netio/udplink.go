package netio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Config parameterizes a UDP overlay link.
type Config struct {
	// Local is the bind address ("127.0.0.1:9001"; port 0 lets the OS
	// pick — read it back with LocalAddr). Required.
	Local string
	// Peer is the remote link endpoint. Optional at construction (two
	// port-0 links must exist before they can learn each other's
	// addresses); settable later with SetPeer. Egress with no peer
	// configured counts as a TX error.
	Peer string
	// Tel optionally registers the link's counters for Prometheus
	// exposition (eisr_netio_* families, labeled by interface).
	Tel *telemetry.Telemetry

	// rcvbuf overrides the receive buffer request, RcvbufFor(MTU), so
	// in-package tests can under-buffer a link.
	rcvbuf int
}

// linkStats is the live counter set of the events only the wire sees
// (atomics; the RX goroutine and the transmitting workers record
// concurrently). It is the only record of these events: Stats snapshots
// it and the metrics registry reads it. Everything a datagram meets at
// the interface is counted there.
type linkStats struct {
	drops          [pkt.NumDropReasons]atomic.Uint64 // DropBadPath (the encapsulation failed to decode) and DropTxError (a socket write failed)
	kernelDrops    atomic.Uint64                     // the kernel's count of receive-buffer drops at the socket, as last read
	rxErrTransient atomic.Uint64                     // non-fatal socket read errors (skipped)
	txPackets      atomic.Uint64
	txBytes        atomic.Uint64
}

// wirePeer is the link's remote endpoint: its address, and the socket
// address a sendto names it by (nil where this socket's family cannot
// reach it).
type wirePeer struct {
	netip.AddrPort
	sa syscall.Sockaddr
}

// sendScratch is one transmit's working set. Transmits take one from
// the link's pool, so concurrent transmits share none, and its callback
// is built with it, so a transmit allocates nothing.
type sendScratch struct {
	buf  []byte                // a traced packet: the encapsulation, then the datagram
	sa4  syscall.SockaddrInet4 // the peer, copied per write: sendto writes
	sa6  syscall.SockaddrInet6 // into the socket address it is handed
	to   syscall.Sockaddr
	out  []byte
	err  error
	call func(fd uintptr)
}

// UDPLink is a wire driver carrying an interface's traffic as UDP
// datagrams to one peer. It implements netdev.Driver and
// netdev.LinkReporter.
type UDPLink struct {
	ifc  *netdev.Interface
	conn *net.UDPConn
	rc   syscall.RawConn
	peer atomic.Pointer[wirePeer]

	// rcvbufWant is the socket receive buffer requested, rcvbufGranted
	// what the kernel reported granting (0 if it cannot say).
	rcvbufWant, rcvbufGranted int

	// rxBuf is the one socket read buffer; only the RX goroutine
	// touches it. Receive copies each datagram into an mbuf.
	rxBuf []byte

	// readFrom is the socket read the RX loop issues, and sendto the
	// socket write a transmit issues on the descriptor — seams so tests
	// can inject read errors and make the kernel refuse a write. Set
	// once at construction, never changed while the link runs. sendto
	// is unused where the platform has no sendto flags.
	readFrom func(b []byte) (int, netip.AddrPort, error)
	sendto   func(fd uintptr, b []byte, to syscall.Sockaddr) error

	// scratch pools the send scratches (newScratch).
	scratch sync.Pool

	mu      sync.Mutex
	stopped bool
	wg      sync.WaitGroup
	running atomic.Bool

	stats linkStats

	// jr is the event journal (nil = off); ring-full burst onsets and
	// peer changes are journaled. The burst gates rate-limit the
	// drop-arm journaling to one event per quiet period per direction.
	jr       *telemetry.Journal
	rxBurst  burstGate
	txBurst  burstGate
	errBurst burstGate
}

// burstQuietNs separates ring-full bursts: the first drop after a quiet
// second journals the burst onset; further drops inside the window are
// counted in the stats but not journaled.
const burstQuietNs = int64(time.Second)

// burstGate is the onset detector: an atomic timestamp of the last
// journaled drop. Lock-free so the drop arms stay fastpath-clean.
type burstGate struct{ last atomic.Int64 }

// onset reports whether this drop starts a new burst (and claims it).
//
//eisr:fastpath
func (g *burstGate) onset(now int64) bool {
	last := g.last.Load()
	if now-last < burstQuietNs {
		return false
	}
	return g.last.CompareAndSwap(last, now)
}

// NewUDPLink binds the local socket and builds the link for an
// interface. The socket is bound immediately (so a port-0 bind can be
// queried with LocalAddr before Start); the RX goroutine launches on
// Start. Its receive buffer is sized to absorb a peer's burst of
// MTU-sized datagrams (RcvbufFor); a kernel that grants less is
// journaled.
func NewUDPLink(ifc *netdev.Interface, cfg Config) (*UDPLink, error) {
	if ifc == nil {
		return nil, fmt.Errorf("netio: nil interface")
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Local)
	if err != nil {
		return nil, fmt.Errorf("netio: local address: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netio: bind %s: %w", cfg.Local, err)
	}
	rc, _ := conn.SyscallConn() // fails only on a nil conn
	want := cfg.rcvbuf
	if want <= 0 {
		want = RcvbufFor(ifc.MTU)
	}
	granted, err := SizeReadBuffer(conn, want)
	if err != nil {
		conn.Close()
		return nil, err
	}
	l := &UDPLink{
		ifc: ifc, conn: conn, rc: rc,
		rcvbufWant: want, rcvbufGranted: granted,
		// MTU plus the worst-case path-trace encapsulation, plus one
		// byte so an oversized inner datagram is detectable (a read that
		// fills the buffer was too big) instead of being silently
		// truncated at the buffer boundary.
		rxBuf:  make([]byte, ifc.MTU+pkt.MaxPathEncap+1),
		sendto: sendNonblocking,
	}
	l.readFrom = conn.ReadFromUDPAddrPort
	l.scratch.New = l.newScratch
	if cfg.Tel != nil {
		l.setTelemetry(cfg.Tel)
		l.jr = cfg.Tel.Journal()
	}
	if granted > 0 && granted < want {
		l.jr.Record(telemetry.EvRcvbufClamped,
			fmt.Sprintf("%s receive buffer requested %d B, granted %d B", ifc.Name, want, granted))
	}
	if cfg.Peer != "" {
		if err := l.SetPeer(cfg.Peer); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return l, nil
}

// newScratch makes a send scratch when the pool has none to hand out.
//
//eisr:slowpath
func (l *UDPLink) newScratch() any {
	// Egress frames carry up to MaxPathEncap bytes of trace context in
	// front of an MTU-sized datagram.
	s := &sendScratch{buf: make([]byte, l.ifc.MTU+pkt.MaxPathEncap)}
	s.call = func(fd uintptr) { s.err = l.sendto(fd, s.out, s.to) }
	return s
}

// setTelemetry exports the link's counters under the eisr_netio_*
// families and its drops under eisr_drops_total, labeled by interface
// name.
func (l *UDPLink) setTelemetry(t *telemetry.Telemetry) {
	lbl := telemetry.Label{Key: "iface", Value: l.ifc.Name}
	dir := telemetry.Label{Key: "dir", Value: "tx"}
	s := &l.stats
	t.CounterFunc("eisr_netio_packets_total", "wire packets per link and direction", s.txPackets.Load, lbl, dir)
	t.CounterFunc("eisr_netio_bytes_total", "wire bytes per link and direction", s.txBytes.Load, lbl, dir)
	t.Drops("netio", func(why pkt.DropReason) uint64 { return s.drops[why].Load() }, []telemetry.Label{lbl}, pkt.DropBadPath, pkt.DropTxError)
	t.Drops("kernel", func(pkt.DropReason) uint64 { return l.readKernelDrops() }, []telemetry.Label{lbl}, pkt.DropRcvbuf)
	t.CounterFunc("eisr_netio_rx_errors_total", "transient socket read errors per link (counted and skipped, never fatal)", s.rxErrTransient.Load, lbl)
}

// LocalAddr reports the bound socket address (resolves port 0).
func (l *UDPLink) LocalAddr() string { return l.conn.LocalAddr().String() }

// SetPeer points the link at its remote endpoint. Safe while running:
// the write is serialized under l.mu against concurrent SetPeer calls
// (the data path reads the pointer atomically and never writes it).
func (l *UDPLink) SetPeer(addr string) error {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		// Accept hostnames too ("localhost:9001") by resolving once.
		ua, rerr := net.ResolveUDPAddr("udp", addr)
		if rerr != nil {
			return fmt.Errorf("netio: peer address: %w", err)
		}
		ap = ua.AddrPort()
	}
	// An AF_INET6 socket (bound to no IPv4 address) writes IPv6
	// addresses, IPv4 ones mapped; an AF_INET one reaches IPv4 only.
	p := &wirePeer{AddrPort: ap}
	switch a := ap.Addr(); {
	case l.conn.LocalAddr().(*net.UDPAddr).IP.To4() == nil:
		sa := &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: a.As16()}
		if ifi, err := net.InterfaceByName(a.Zone()); err == nil {
			sa.ZoneId = uint32(ifi.Index)
		}
		p.sa = sa
	case a.Unmap().Is4():
		p.sa = &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: a.Unmap().As4()}
	}
	l.mu.Lock()
	l.peer.Store(p)
	l.mu.Unlock()
	l.jr.Record(telemetry.EvLinkPeer, l.ifc.Name+" peer "+ap.String())
	return nil
}

// Start launches the RX goroutine. Idempotent.
func (l *UDPLink) Start() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.running.Load() || l.stopped {
		return
	}
	l.running.Store(true)
	l.wg.Add(1)
	go l.rxLoop()
}

// Stop closes the socket (unblocking the RX read, and failing any later
// transmit at once) and joins the RX goroutine. Idempotent; the link
// cannot be restarted.
func (l *UDPLink) Stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	l.mu.Unlock()
	l.readKernelDrops() // the last value, kept once the socket is gone
	l.conn.Close()
	l.wg.Wait()
	l.running.Store(false)
}

// rxLoop reads the socket until the link stops: one blocking read, then
// one delivery, per datagram.
//
// Read errors are classified, not fatal: only net.ErrClosed (the link
// stopping) ends the RX loop. Anything else — e.g. an ICMP
// port-unreachable surfacing as ECONNREFUSED on a connected UDP socket
// — is a transient condition of one datagram exchange; it is counted
// (rx_err_transient), its onset journaled, and the loop keeps reading.
func (l *UDPLink) rxLoop() {
	defer l.wg.Done()
	for {
		n, _, err := l.readFrom(l.rxBuf)
		switch {
		case err == nil:
			l.deliver(n)
		case errors.Is(err, net.ErrClosed):
			return
		default:
			l.stats.rxErrTransient.Add(1)
			if l.jr != nil && l.errBurst.onset(time.Now().UnixNano()) {
				l.jr.Record(telemetry.EvRxErrBurst, l.ifc.Name+" "+err.Error())
			}
		}
	}
}

// deliver strips the path-trace encapsulation off the n-byte datagram
// in the read buffer and hands the inner datagram to the interface's
// Receive, which counts what becomes of it. Allocation-free.
//
//eisr:fastpath
func (l *UDPLink) deliver(n int) {
	var path pkt.PathContext
	consumed, ok := pkt.DecodePath(l.rxBuf[:n], &path)
	if !ok {
		l.stats.drops[pkt.DropBadPath].Add(1)
		return
	}
	if l.ifc.Receive(l.rxBuf[consumed:n], &path) == netdev.ErrRingFull &&
		l.jr != nil && l.rxBurst.onset(time.Now().UnixNano()) {
		l.jr.Record(telemetry.EvRxRingBurst, l.ifc.Name)
	}
}

// TransmitWire writes one egress datagram to the peer, on the calling
// goroutine (the worker draining the port): an untraced packet straight
// from its buffer, a traced one behind its encapsulation in a send
// scratch. The write never waits: a datagram the kernel would have to
// block for is wire backpressure, ErrRingFull, which netdev.Transmit
// counts as a TX ring-full drop. A datagram with no peer, or one the
// socket refuses otherwise (the link stopped, say), is the link's
// tx-error, and nil: the interface sent it. So the link has counted
// every datagram it was handed, written or tx-error, by the time
// TransmitWire returns: nothing is left in flight to count later.
//
//eisr:fastpath
func (l *UDPLink) TransmitWire(p *pkt.Packet) error {
	peer := l.peer.Load()
	if peer == nil {
		l.stats.drops[pkt.DropTxError].Add(1)
		return nil
	}
	s := l.scratch.Get().(*sendScratch)
	b := p.Data
	if p.Path.Active && p.Path.NHops > 0 {
		// Re-stamp the hop this router appended so its total residency
		// includes TX queueing up to this point (foreign hops — a
		// context transiting an untraced best-effort router — are never
		// touched). Then prepend the encapsulation.
		if p.Path.StampedHere && p.Stamp != 0 {
			h := p.Path.Last()
			if ns := pkt.ClampNs(pkt.Nanotime() - p.Stamp); ns > h.TotalNs {
				h.TotalNs = ns
			}
		}
		n := pkt.EncodePath(&p.Path, s.buf)
		b = s.buf[:n+copy(s.buf[n:], p.Data)]
	}
	err := l.write(s, b, peer)
	l.scratch.Put(s)
	switch err {
	case nil:
		l.stats.txPackets.Add(1)
		l.stats.txBytes.Add(uint64(len(b)))
	case netdev.ErrRingFull:
		if l.jr != nil && l.txBurst.onset(time.Now().UnixNano()) {
			l.jr.Record(telemetry.EvTxRingBurst, l.ifc.Name)
		}
		return err
	default:
		l.stats.drops[pkt.DropTxError].Add(1)
	}
	return nil
}

// readKernelDrops reads the kernel's receive-buffer drop count at the
// link's socket into stats.kernelDrops, which never goes back, and
// returns it. Once the socket is closed it returns the last value read.
func (l *UDPLink) readKernelDrops() uint64 {
	cell := &l.stats.kernelDrops
	if n, err := SocketDrops(l.conn); err == nil {
		for last := cell.Load(); n > last && !cell.CompareAndSwap(last, n); last = cell.Load() {
		}
	}
	return cell.Load()
}

// Stats snapshots the link counters, reading the kernel's drop count.
func (l *UDPLink) Stats() netdev.LinkStats {
	return netdev.LinkStats{
		RxDropBadPath:  l.stats.drops[pkt.DropBadPath].Load(),
		RxDropRcvbuf:   l.readKernelDrops(),
		RxErrTransient: l.stats.rxErrTransient.Load(),
		TxPackets:      l.stats.txPackets.Load(),
		TxBytes:        l.stats.txBytes.Load(),
		TxErrors:       l.stats.drops[pkt.DropTxError].Load(),
	}
}

// LinkInfo describes the link for operator tooling (pmgr links).
func (l *UDPLink) LinkInfo() netdev.LinkInfo {
	info := netdev.LinkInfo{
		Iface:   l.ifc.Index,
		Name:    l.ifc.Name,
		Kind:    "udp",
		Local:   l.LocalAddr(),
		Running: l.running.Load(),

		RcvbufRequested: l.rcvbufWant,
		RcvbufGranted:   l.rcvbufGranted,
		Stats:           l.Stats(),
	}
	if p := l.peer.Load(); p != nil {
		info.Peer = p.AddrPort.String()
	}
	return info
}
