//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd || solaris

package netio

import (
	"syscall"

	"github.com/routerplugins/eisr/internal/netdev"
)

// sendNonblocking is the socket write: one sendto that fails with
// EAGAIN rather than wait for room in the socket's send buffer.
func sendNonblocking(fd uintptr, b []byte, to syscall.Sockaddr) error {
	return syscall.Sendto(int(fd), b, syscall.MSG_DONTWAIT, to)
}

// write sends b to the peer through the scratch's callback, which the
// socket runs on its descriptor. RawConn.Control, not Write: Write takes
// the descriptor's write lock, so transmits on one link would queue
// behind each other; Control only pins the descriptor while the
// non-blocking sendto runs, and never asks the poller to wait. A write
// the kernel would block is ErrRingFull.
//
//eisr:fastpath
func (l *UDPLink) write(s *sendScratch, b []byte, p *wirePeer) error {
	switch sa := p.sa.(type) {
	case *syscall.SockaddrInet4:
		s.sa4, s.to = *sa, &s.sa4
	case *syscall.SockaddrInet6:
		s.sa6, s.to = *sa, &s.sa6
	default:
		return syscall.EAFNOSUPPORT
	}
	s.out = b
	if err := l.rc.Control(s.call); err != nil {
		return err
	}
	if s.err == syscall.EAGAIN {
		return netdev.ErrRingFull
	}
	return s.err
}
