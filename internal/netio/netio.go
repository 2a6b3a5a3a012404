// Package netio backs netdev interfaces with real OS sockets — the
// driver layer that turns the simulated router into a daemon serving
// actual traffic. The first (and currently only) transport is the UDP
// overlay link: the interface binds a local UDP socket and every
// egress IP datagram is carried verbatim as the payload of one UDP
// datagram to a configured peer, so two eisrd processes forward real
// packets to each other over loopback or a LAN with zero privileges.
//
// The design follows the cost structure identified by the software
// router literature (batching, buffer pooling, backpressure at the I/O
// boundary):
//
//   - RX: one goroutine per link does batched socket reads — a blocking
//     read opens each batch, then short-deadline reads drain the socket
//     up to the batch cap — into one link-owned buffer. It strips the
//     path-trace encapsulation and hands the inner datagram to the
//     interface's Receive, the same path Inject and the in-memory peer
//     take, which copies it into a packet from the interface's mbuf
//     pool. So the steady-state receive path allocates nothing per
//     packet, and a wire packet follows the one recycling contract.
//   - TX: Transmit hands egress packets to the driver, which copies
//     them into a fixed pool of wire buffers and queues them for a
//     drain goroutine. The handoff is non-blocking: when the TX ring is
//     full the packet is dropped and counted (netdev.ErrRingFull) —
//     wire backpressure never blocks a forwarding worker.
//   - Receive buffer: each socket asks for enough to hold one full peer
//     TX ring of MTU-sized datagrams (RcvbufFor), so a burst that lands
//     while the RX goroutine is off the CPU waits in the kernel instead
//     of being dropped there; what the kernel still drops is read from
//     its per-socket count and exported as layer "kernel".
//   - Lifecycle: links start and stop with Router.Start/Stop. Stop
//     closes the socket to unblock the RX read and joins both
//     goroutines before returning, so sockets close cleanly and the
//     epoch reclaimer can still quiesce.
//   - Counters: a link counts only what the wire alone sees (a bad
//     path-trace header, the kernel's drops at its full receive buffer,
//     transient read errors, socket writes and their errors, batch
//     sizes) — `pmgr links`. A datagram that reached the
//     interface is counted once, in the interface's netdev.Stats
//     (received, down, too big, malformed, ring full, TX ring full) —
//     `pmgr stats`.
package netio

import "time"

// Defaults for Config zero values.
const (
	// DefaultTxRing is the wire-buffer count of the TX path (the depth
	// of backpressure before egress drops).
	DefaultTxRing = 512
	// DefaultBatch caps how many datagrams one RX wakeup drains.
	DefaultBatch = 64
	// batchDrainWindow is the read deadline applied after the blocking
	// batch-head read: how long the RX loop lingers for the rest of a
	// batch before declaring the socket dry.
	batchDrainWindow = 500 * time.Microsecond
)
