//go:build linux && amd64

package transport

import (
	"net"
	"sync"
	"syscall"
	"unsafe"
)

// sysSENDMMSG is the sendmmsg syscall number on linux/amd64. The frozen
// stdlib syscall table predates sendmmsg (recvmmsg made it in, sendmmsg
// did not), so the number is spelled out here.
const sysSENDMMSG = 307

// mmsghdr mirrors struct mmsghdr on linux/amd64: a msghdr plus the
// per-message byte count the kernel fills in, padded to 8-byte alignment.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// v4InV6Prefix is the IPv4-in-IPv6 mapped-address prefix; net.IP.String
// prints such addresses in dotted-quad form, matching what the plain net
// read path reports.
var v4InV6Prefix = [12]byte{10: 0xff, 11: 0xff}

// mmsgConn implements BatchConn with recvmmsg/sendmmsg over the socket's
// RawConn, so one syscall moves a whole burst of datagrams. Reads and
// writes keep separate scratch state and may run concurrently; each
// direction serialises its own callers.
type mmsgConn struct {
	conn      *net.UDPConn
	rc        syscall.RawConn
	connected bool

	rmu    sync.Mutex
	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames [][syscall.SizeofSockaddrAny]byte

	wmu    sync.Mutex
	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames [][syscall.SizeofSockaddrAny]byte
}

func newBatchImpl(conn *net.UDPConn, connected bool) BatchConn {
	rc, err := conn.SyscallConn()
	if err != nil {
		return &simpleConn{conn: conn, connected: connected}
	}
	return &mmsgConn{conn: conn, rc: rc, connected: connected}
}

func (c *mmsgConn) Batched() bool { return true }

// yield gives this thread's CPU to any other runnable thread (sched_yield).
func yield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }

func (c *mmsgConn) ReadBatch(ms []Message) (int, error)    { return c.readBatch(ms, false) }
func (c *mmsgConn) TryReadBatch(ms []Message) (int, error) { return c.readBatch(ms, true) }

func (c *mmsgConn) readBatch(ms []Message, dontwait bool) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for len(c.rhdrs) < len(ms) {
		c.rhdrs = append(c.rhdrs, mmsghdr{})
		c.riovs = append(c.riovs, syscall.Iovec{})
		c.rnames = append(c.rnames, [syscall.SizeofSockaddrAny]byte{})
	}
	for i := range ms {
		c.riovs[i].Base = &ms[i].Buf[0]
		c.riovs[i].Len = uint64(len(ms[i].Buf))
		h := &c.rhdrs[i].Hdr
		h.Name = &c.rnames[i][0]
		h.Namelen = syscall.SizeofSockaddrAny
		h.Iov = &c.riovs[i]
		h.Iovlen = 1
		c.rhdrs[i].Len = 0
	}
	var count int
	var opErr error
	err := c.rc.Read(func(fd uintptr) bool {
		for {
			// MSG_DONTWAIT always: on EAGAIN we either report "empty"
			// (try mode) or park on the runtime poller, which honours
			// the read deadline set on the net.UDPConn.
			r, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&c.rhdrs[0])), uintptr(len(ms)),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch errno {
			case 0:
				count = int(r)
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				if dontwait {
					count = 0
					return true
				}
				return false
			default:
				opErr = errno
				return true
			}
		}
	})
	if err != nil {
		return 0, err
	}
	if opErr != nil {
		return 0, opErr
	}
	for i := 0; i < count; i++ {
		ms[i].N = int(c.rhdrs[i].Len)
		fillAddr(&ms[i], &c.rnames[i])
	}
	return count, nil
}

// fillAddr decodes the raw sockaddr into m.Addr, reusing the existing
// UDPAddr and its 16-byte IP backing so steady-state reads do not allocate.
func fillAddr(m *Message, raw *[syscall.SizeofSockaddrAny]byte) {
	family := uint16(raw[0]) | uint16(raw[1])<<8
	if m.Addr == nil || cap(m.Addr.IP) < 16 {
		m.Addr = &net.UDPAddr{IP: make(net.IP, 16)}
	}
	a := m.Addr
	a.Zone = ""
	a.Port = int(raw[2])<<8 | int(raw[3])
	a.IP = a.IP[:16]
	switch family {
	case syscall.AF_INET:
		copy(a.IP, v4InV6Prefix[:])
		copy(a.IP[12:16], raw[4:8])
	case syscall.AF_INET6:
		copy(a.IP, raw[8:24])
	default:
		m.Addr = nil
	}
}

// putAddr encodes a into the raw sockaddr buffer, returning the sockaddr
// length (0 means "no address": connected-socket send).
func putAddr(raw *[syscall.SizeofSockaddrAny]byte, a *net.UDPAddr) uint32 {
	if a == nil {
		return 0
	}
	if ip4 := a.IP.To4(); ip4 != nil {
		raw[0], raw[1] = byte(syscall.AF_INET), 0
		raw[2], raw[3] = byte(a.Port>>8), byte(a.Port)
		copy(raw[4:8], ip4)
		return syscall.SizeofSockaddrInet4
	}
	if ip16 := a.IP.To16(); ip16 != nil {
		raw[0], raw[1] = byte(syscall.AF_INET6), 0
		raw[2], raw[3] = byte(a.Port>>8), byte(a.Port)
		for i := 4; i < 8; i++ {
			raw[i] = 0 // flowinfo
		}
		copy(raw[8:24], ip16)
		return syscall.SizeofSockaddrInet6
	}
	return 0
}

func (c *mmsgConn) WriteBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for len(c.whdrs) < len(ms) {
		c.whdrs = append(c.whdrs, mmsghdr{})
		c.wiovs = append(c.wiovs, syscall.Iovec{})
		c.wnames = append(c.wnames, [syscall.SizeofSockaddrAny]byte{})
	}
	for i := range ms {
		c.wiovs[i].Base = &ms[i].Buf[0]
		c.wiovs[i].Len = uint64(ms[i].N)
		h := &c.whdrs[i].Hdr
		h.Name = nil
		h.Namelen = 0
		if !c.connected {
			if nl := putAddr(&c.wnames[i], ms[i].Addr); nl != 0 {
				h.Name = &c.wnames[i][0]
				h.Namelen = nl
			}
		}
		h.Iov = &c.wiovs[i]
		h.Iovlen = 1
	}
	sent := 0
	var opErr error
	err := c.rc.Write(func(fd uintptr) bool {
		for sent < len(ms) {
			r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&c.whdrs[sent])), uintptr(len(ms)-sent),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch errno {
			case 0:
				sent += int(r)
			case syscall.EINTR:
			case syscall.EAGAIN:
				return false
			default:
				opErr = errno
				return true
			}
		}
		return true
	})
	if err != nil {
		return sent, err
	}
	return sent, opErr
}
