package netio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
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
	// TxRing is the wire-buffer count of the TX path (default
	// DefaultTxRing).
	TxRing int
	// Batch caps datagrams drained per RX wakeup (default DefaultBatch).
	Batch int
	// Tel optionally registers the link's counters for Prometheus
	// exposition (eisr_netio_* families, labeled by interface).
	Tel *telemetry.Telemetry

	// rcvbuf overrides the receive buffer request, RcvbufFor(MTU), so
	// in-package tests can under-buffer a link.
	rcvbuf int
}

// wireBuf is one TX descriptor: egress bytes are copied in by the
// forwarding worker and written out by the drain goroutine. The pool
// is conserved — free and txq together always hold exactly TxRing
// buffers — so every holder must pass its buffer on (mbufown enforces
// this linearly).
//
//eisr:mbuf
type wireBuf struct {
	buf []byte
	n   int
}

// linkStats is the live counter set of the events only the wire sees
// (atomics; the RX goroutine and the TX drain record concurrently). It
// is the only record of these events: Stats snapshots it and the
// metrics registry reads it. Everything a datagram meets at the
// interface is counted there.
type linkStats struct {
	drops          [pkt.NumDropReasons]atomic.Uint64 // DropBadPath (the encapsulation failed to decode) and DropTxError (a socket write failed)
	kernelDrops    atomic.Uint64                     // the kernel's count of receive-buffer drops at the socket, as last read
	rxErrTransient atomic.Uint64                     // non-fatal socket read errors (skipped)
	txPackets      atomic.Uint64
	txBytes        atomic.Uint64
	batches        atomic.Uint64
	batchedPkts    atomic.Uint64
	txBatches      atomic.Uint64
	txBatchedPkts  atomic.Uint64
}

// linkTel is the link's registry-owned metric set: the batch-size
// histograms, which have no Stats twin. Nil without a registry, and
// record calls on nil cells are no-ops.
type linkTel struct {
	batchSize   *telemetry.Histogram
	txBatchSize *telemetry.Histogram
}

// UDPLink is a wire driver carrying an interface's traffic as UDP
// datagrams to one peer. It implements netdev.Driver and
// netdev.LinkReporter.
type UDPLink struct {
	ifc   *netdev.Interface
	conn  *net.UDPConn
	peer  atomic.Pointer[netip.AddrPort]
	batch int

	// rcvbufWant is the socket receive buffer requested, rcvbufGranted
	// what the kernel reported granting (0 if it cannot say).
	rcvbufWant, rcvbufGranted int

	// rxBuf is the one socket read buffer; only the RX goroutine
	// touches it. Receive copies each datagram into an mbuf.
	rxBuf []byte

	// readFrom is the socket read the RX loop issues — a seam so tests
	// can inject read errors. Set once at construction, never changed
	// while the RX goroutine runs.
	readFrom func(b []byte) (int, netip.AddrPort, error)

	// free and txq together hold exactly TxRing wire buffers: a
	// forwarding worker moves a buffer free→txq (non-blocking on both
	// ends), the drain goroutine moves it back.
	free chan *wireBuf
	txq  chan *wireBuf

	mu      sync.Mutex
	started bool
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup
	running atomic.Bool

	stats linkStats
	tel   linkTel

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
// queried with LocalAddr before Start); I/O goroutines launch on Start.
// Its receive buffer is sized to absorb one full peer TX ring of
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
	want := cfg.rcvbuf
	if want <= 0 {
		want = RcvbufFor(ifc.MTU)
	}
	granted, err := SizeReadBuffer(conn, want)
	if err != nil {
		conn.Close()
		return nil, err
	}
	txRing := cfg.TxRing
	if txRing <= 0 {
		txRing = DefaultTxRing
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	l := &UDPLink{
		ifc: ifc, conn: conn, batch: batch,
		rcvbufWant: want, rcvbufGranted: granted,
		// MTU plus the worst-case path-trace encapsulation, plus one
		// byte so an oversized inner datagram is detectable (a read that
		// fills the buffer was too big) instead of being silently
		// truncated at the buffer boundary.
		rxBuf: make([]byte, ifc.MTU+pkt.MaxPathEncap+1),
		free:  make(chan *wireBuf, txRing),
		txq:   make(chan *wireBuf, txRing),
		done:  make(chan struct{}),
	}
	l.readFrom = conn.ReadFromUDPAddrPort
	for i := 0; i < txRing; i++ {
		// Egress frames carry up to MaxPathEncap bytes of trace context
		// in front of an MTU-sized datagram.
		l.free <- &wireBuf{buf: make([]byte, ifc.MTU+pkt.MaxPathEncap)}
	}
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

// setTelemetry exports the link's counters under the eisr_netio_*
// families and its drops under eisr_drops_total, labeled by interface
// name, and registers its batch-size histograms.
func (l *UDPLink) setTelemetry(t *telemetry.Telemetry) {
	lbl := telemetry.Label{Key: "iface", Value: l.ifc.Name}
	dir := telemetry.Label{Key: "dir", Value: "tx"}
	s := &l.stats
	t.CounterFunc("eisr_netio_packets_total", "wire packets per link and direction", s.txPackets.Load, lbl, dir)
	t.CounterFunc("eisr_netio_bytes_total", "wire bytes per link and direction", s.txBytes.Load, lbl, dir)
	t.Drops("netio", func(why pkt.DropReason) uint64 { return s.drops[why].Load() }, []telemetry.Label{lbl}, pkt.DropBadPath, pkt.DropTxError)
	t.Drops("kernel", func(pkt.DropReason) uint64 { return l.readKernelDrops() }, []telemetry.Label{lbl}, pkt.DropRcvbuf)

	t.CounterFunc("eisr_netio_rx_errors_total", "transient socket read errors per link (counted and skipped, never fatal)", s.rxErrTransient.Load, lbl)
	l.tel = linkTel{
		batchSize:   t.Histogram("eisr_netio_rx_batch", "datagrams drained per RX wakeup", lbl),
		txBatchSize: t.Histogram("eisr_netio_tx_batch", "datagrams written per TX drain wakeup", lbl),
	}
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
	l.mu.Lock()
	l.peer.Store(&ap)
	l.mu.Unlock()
	l.jr.Record(telemetry.EvLinkPeer, l.ifc.Name+" peer "+ap.String())
	return nil
}

// Start launches the RX and TX goroutines. Idempotent.
func (l *UDPLink) Start() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started || l.stopped {
		return
	}
	l.started = true
	l.running.Store(true)
	l.wg.Add(2)
	go l.rxLoop()
	go l.txLoop()
}

// Stop closes the socket (unblocking the RX read) and joins the I/O
// goroutines. Idempotent; the link cannot be restarted.
func (l *UDPLink) Stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	started := l.started
	l.mu.Unlock()
	close(l.done)
	l.readKernelDrops() // the last value, kept once the socket is gone
	l.conn.Close()
	if started {
		l.wg.Wait()
	}
	l.running.Store(false)
}

// rxLoop drains the socket batch by batch until the link stops.
func (l *UDPLink) rxLoop() {
	defer l.wg.Done()
	for {
		n, closed := l.rxBatch()
		if n > 0 {
			l.stats.batches.Add(1)
			l.stats.batchedPkts.Add(uint64(n))
			l.tel.batchSize.Observe(uint64(n))
		}
		if closed {
			return
		}
	}
}

// rxBatch reads one batch: a blocking read for the batch head, then
// short-deadline reads until the batch cap or the socket runs dry. At
// saturation the cap is hit before the deadline, so the loop cycles
// batches with no timeout errors and no allocations.
//
// Read errors are classified, not fatal: only net.ErrClosed (the link
// stopping) ends the RX loop. Anything else — e.g. an ICMP
// port-unreachable surfacing as ECONNREFUSED on a connected UDP socket
// — is a transient condition of one datagram exchange; it is counted
// (rx_err_transient), its onset journaled, and the loop keeps reading.
func (l *UDPLink) rxBatch() (n int, closed bool) {
	if err := l.conn.SetReadDeadline(time.Time{}); err != nil {
		return 0, true
	}
	for n < l.batch {
		cnt, _, err := l.readFrom(l.rxBuf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Batch drain window expired: the batch is done, the
				// link is healthy.
				return n, false
			}
			if errors.Is(err, net.ErrClosed) {
				return n, true
			}
			l.stats.rxErrTransient.Add(1)
			if l.jr != nil && l.errBurst.onset(time.Now().UnixNano()) {
				l.jr.Record(telemetry.EvRxErrBurst, l.ifc.Name+" "+err.Error())
			}
			continue
		}
		l.deliver(cnt)
		n++
		if n == 1 {
			// Batch head arrived; linger briefly for the rest.
			if err := l.conn.SetReadDeadline(time.Now().Add(batchDrainWindow)); err != nil {
				return n, true
			}
		}
	}
	return n, false
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

// TransmitWire queues one egress datagram: grab a wire buffer, copy the
// packet, hand it to the drain goroutine. Non-blocking end to end — an
// exhausted buffer pool is wire backpressure: ErrRingFull, which
// netdev.Transmit counts as a TX drop, rather than a stalled forwarding
// worker.
//
//eisr:fastpath
func (l *UDPLink) TransmitWire(p *pkt.Packet) error {
	var wb *wireBuf
	select {
	case wb = <-l.free:
	default:
		if l.jr != nil && l.txBurst.onset(time.Now().UnixNano()) {
			l.jr.Record(telemetry.EvTxRingBurst, l.ifc.Name)
		}
		return netdev.ErrRingFull
	}
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
		n := pkt.EncodePath(&p.Path, wb.buf)
		wb.n = n + copy(wb.buf[n:], p.Data)
	} else {
		wb.n = copy(wb.buf, p.Data)
	}
	select {
	case l.txq <- wb:
		return nil
	default:
	}
	// Rare full-txq fallback: the buffer MUST return to the pool. The
	// send cannot block — free and txq together hold exactly TxRing
	// buffers and we hold one of them, so free has a slot — and a
	// non-blocking send that drops wb on the default arm would leak a
	// pool buffer per occurrence until the link runs dry.
	//eisr:allow(fastpath) pool-conservation makes this send non-blocking
	l.free <- wb
	if l.jr != nil && l.txBurst.onset(time.Now().UnixNano()) {
		l.jr.Record(telemetry.EvTxRingBurst, l.ifc.Name)
	}
	return netdev.ErrRingFull
}

// txLoop writes queued wire buffers to the socket until the link stops.
// Each wakeup drains everything already queued (up to the pool size, so
// the slice is preallocated and never grows) and writes the whole batch
// back to back — forwarding workers batch their enqueues, so one wakeup
// typically flushes a worker's whole TX vector instead of cycling the
// scheduler per datagram.
func (l *UDPLink) txLoop() {
	defer l.wg.Done()
	pend := make([]*wireBuf, 0, cap(l.txq))
	for {
		select {
		case <-l.done:
			return
		case wb := <-l.txq:
			pend = append(pend, wb)
		fill:
			for len(pend) < cap(pend) {
				select {
				case more := <-l.txq:
					pend = append(pend, more)
				default:
					break fill
				}
			}
			for _, w := range pend {
				l.transmitOne(w)
			}
			l.stats.txBatches.Add(1)
			l.stats.txBatchedPkts.Add(uint64(len(pend)))
			l.tel.txBatchSize.Observe(uint64(len(pend)))
			pend = pend[:0]
		}
	}
}

// transmitOne writes one wire buffer to the peer and recycles it — the
// per-packet transmit work, allocation-free in steady state. Takes
// ownership of wb: the buffer is back on the free list on return.
//
//eisr:fastpath
func (l *UDPLink) transmitOne(wb *wireBuf) {
	peer := l.peer.Load()
	if peer == nil {
		l.stats.drops[pkt.DropTxError].Add(1)
	} else if _, err := l.conn.WriteToUDPAddrPort(wb.buf[:wb.n], *peer); err != nil {
		l.stats.drops[pkt.DropTxError].Add(1)
	} else {
		l.stats.txPackets.Add(1)
		l.stats.txBytes.Add(uint64(wb.n))
	}
	// Same conservation argument as TransmitWire's fallback: we hold a
	// pool buffer, so the free list has room and the send cannot block.
	//eisr:allow(fastpath) pool-conservation makes this send non-blocking
	l.free <- wb
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
	s := netdev.LinkStats{
		RxDropBadPath:  l.stats.drops[pkt.DropBadPath].Load(),
		RxDropRcvbuf:   l.readKernelDrops(),
		RxErrTransient: l.stats.rxErrTransient.Load(),
		TxPackets:      l.stats.txPackets.Load(),
		TxBytes:        l.stats.txBytes.Load(),
		TxErrors:       l.stats.drops[pkt.DropTxError].Load(),
		Batches:        l.stats.batches.Load(),
		TxBatches:      l.stats.txBatches.Load(),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(l.stats.batchedPkts.Load()) / float64(s.Batches)
	}
	if s.TxBatches > 0 {
		s.AvgTxBatch = float64(l.stats.txBatchedPkts.Load()) / float64(s.TxBatches)
	}
	return s
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
		info.Peer = p.String()
	}
	return info
}
