//go:build linux && !386

package netio

import (
	"syscall"
	"unsafe"
)

// readMeminfo fills mem from the socket's SO_MEMINFO; false where the
// kernel returns an error or an array too short to hold the drop count.
func readMeminfo(fd uintptr, mem *meminfo) bool {
	size := uint32(unsafe.Sizeof(*mem))
	_, _, errno := syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMeminfo,
		uintptr(unsafe.Pointer(mem)), uintptr(unsafe.Pointer(&size)), 0)
	return errno == 0 && size == uint32(unsafe.Sizeof(*mem))
}
