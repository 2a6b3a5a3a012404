//go:build !linux

package netio

import (
	"errors"
	"net"
)

// rcvbufGranted cannot read the granted size back here: 0.
func rcvbufGranted(*net.UDPConn) (int, error) { return 0, nil }

// SocketDrops would read the kernel's count of datagrams it dropped at
// conn's receive buffer; this platform keeps none that can be read.
func SocketDrops(*net.UDPConn) (uint64, error) { return 0, errors.ErrUnsupported }
