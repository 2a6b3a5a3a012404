package netio

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// SO_MEMINFO fills an array of SK_MEMINFO_VARS counters; the drop count
// is the last of them, absent on older kernels.
const (
	soMeminfo      = 55 // SO_MEMINFO
	skMeminfoDrops = 8  // SK_MEMINFO_DROPS
)

// meminfo is SO_MEMINFO's array up to and including the drop count.
type meminfo [skMeminfoDrops + 1]uint32

// rcvbufGranted reads the socket's SO_RCVBUF back.
func rcvbufGranted(conn *net.UDPConn) (int, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var v int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		v, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	if serr != nil {
		return 0, fmt.Errorf("netio: read SO_RCVBUF: %w", serr)
	}
	return v, nil
}

// SocketDrops reads the kernel's count of datagrams it dropped at
// conn's receive buffer: SK_MEMINFO_DROPS, or on kernels without it the
// drops column of /proc/net/udp for the socket's inode. It fails on a
// closed socket.
func SocketDrops(conn *net.UDPConn) (uint64, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var mem meminfo
	var st syscall.Stat_t
	var ok bool
	var serr error
	if err := rc.Control(func(fd uintptr) {
		if ok = readMeminfo(fd, &mem); !ok {
			serr = syscall.Fstat(int(fd), &st)
		}
	}); err != nil {
		return 0, err
	}
	if ok {
		return uint64(mem[skMeminfoDrops]), nil
	}
	if serr != nil {
		return 0, fmt.Errorf("netio: socket inode: %w", serr)
	}
	return procUDPDrops(st.Ino)
}

// procUDPDrops reads the drops column of the socket with the given
// inode from /proc/net/udp or /proc/net/udp6.
func procUDPDrops(inode uint64) (uint64, error) {
	ino := strconv.FormatUint(inode, 10)
	for _, table := range []string{"/proc/net/udp", "/proc/net/udp6"} {
		data, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		// sl local rem st tx:rx tr:when retrnsmt uid timeout inode ref pointer drops
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) >= 13 && f[9] == ino {
				return strconv.ParseUint(f[12], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("netio: socket inode %d not in /proc/net/udp", inode)
}
