//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd || solaris)

package netio

import "syscall"

// sendNonblocking is unused here: the platform has no sendto flags.
var sendNonblocking func(uintptr, []byte, syscall.Sockaddr) error

// write sends b to the peer with the socket's own write, the one path
// on a platform without sendto flags.
func (l *UDPLink) write(_ *sendScratch, b []byte, p *wirePeer) error {
	_, err := l.conn.WriteToUDPAddrPort(b, p.AddrPort)
	return err
}
