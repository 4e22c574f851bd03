//go:build !(linux && amd64)

package transport

import (
	"net"
	"runtime"
)

// newBatchImpl falls back to one-datagram-per-syscall on platforms without
// a wired-up recvmmsg/sendmmsg implementation.
func newBatchImpl(conn *net.UDPConn, connected bool) BatchConn {
	return &simpleConn{conn: conn, connected: connected}
}

// yield lets other goroutines run; without sched_yield wired up, that is
// as close as the portable path gets to giving up the CPU.
func yield() { runtime.Gosched() }
