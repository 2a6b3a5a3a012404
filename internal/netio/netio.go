// Package netio backs netdev interfaces with real OS sockets — the
// driver layer that turns the simulated router into a daemon serving
// actual traffic. The first (and currently only) transport is the UDP
// overlay link: the interface binds a local UDP socket and every
// egress IP datagram is carried verbatim as the payload of one UDP
// datagram to a configured peer, so two eisrd processes forward real
// packets to each other over loopback or a LAN with zero privileges.
//
// The link runs to completion on both sides:
//
//   - RX: one goroutine per link does one blocking socket read per
//     datagram into one link-owned buffer, strips the path-trace
//     encapsulation and hands the inner datagram to the interface's
//     Receive, the same path Inject and the in-memory peer take, which
//     copies it into a packet from the interface's mbuf pool. So the
//     steady-state receive path allocates nothing per packet, and a
//     wire packet follows the one recycling contract.
//   - TX: Transmit hands an egress packet to the driver, which writes
//     it to the socket on the same goroutine — the worker draining the
//     port — with one non-blocking sendto: an untraced packet from its
//     own buffer, a traced one behind its encapsulation in a pooled
//     send scratch. A write the kernel would block is dropped and
//     counted (netdev.ErrRingFull) — wire backpressure never blocks a
//     forwarding worker.
//   - Receive buffer: each socket asks for enough to hold a peer's
//     burst of PeerBurst MTU-sized datagrams (RcvbufFor), so a burst
//     that lands while the RX goroutine is off the CPU waits in the
//     kernel instead of being dropped there; what the kernel still
//     drops is read from its per-socket count and exported as layer
//     "kernel".
//   - Lifecycle: links start and stop with Router.Start/Stop. Stop
//     closes the socket to unblock the RX read and joins the RX
//     goroutine before returning, so sockets close cleanly and the
//     epoch reclaimer can still quiesce; a transmit after Stop fails at
//     once.
//   - Counters: a link counts only what the wire alone sees (a bad
//     path-trace header, the kernel's drops at its full receive buffer,
//     transient read errors, socket writes and their errors) —
//     `pmgr links`. A datagram that reached the interface is counted
//     once, in the interface's netdev.Stats (received, down, too big,
//     malformed, ring full, TX ring full) — `pmgr stats`.
package netio
