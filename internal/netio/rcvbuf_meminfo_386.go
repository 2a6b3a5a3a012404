//go:build linux && 386

package netio

// readMeminfo reads no SO_MEMINFO here: linux/386 has no getsockopt
// system call number (socket calls go through socketcall), so
// SocketDrops reads /proc/net/udp instead.
func readMeminfo(uintptr, *meminfo) bool { return false }
