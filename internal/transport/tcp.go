package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCPNetwork implements Network over real TCP sockets with 4-byte
// length-delimited frames. It lets the same OBIWAN code run as separate OS
// processes (cmd/nameserver, multi-process examples) instead of inside the
// simulated network.
type TCPNetwork struct{}

// NewTCPNetwork returns a TCP-backed Network.
func NewTCPNetwork() *TCPNetwork { return &TCPNetwork{} }

var _ Network = (*TCPNetwork)(nil)

// Listen binds a TCP listener at local ("host:port"; ":0" picks a free
// port — read the chosen address back with Listener.Addr).
func (n *TCPNetwork) Listen(local Addr) (Listener, error) {
	ln, err := net.Listen("tcp", string(local))
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", local, err)
	}
	return &tcpListener{ln: ln}, nil
}

// Dial connects to remote. The local address is ignored; the kernel picks.
func (n *TCPNetwork) Dial(_, remote Addr) (Conn, error) {
	c, err := net.Dial("tcp", string(remote))
	if err != nil {
		return nil, fmt.Errorf("%w: dial %q: %v", ErrUnreachable, remote, err)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	ln net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Close() error { return l.ln.Close() }

func (l *tcpListener) Addr() Addr { return Addr(l.ln.Addr().String()) }

// recvBufSize is the per-connection read buffer: a header and a small
// payload (a null call is 54 bytes both ways) arrive in one read syscall.
// Payloads at least this large bypass it and are read straight into the
// frame, so the buffer adds no copy to the per-byte path.
const recvBufSize = 4096

// tcpConn frames messages as [uint32 big-endian length][payload].
type tcpConn struct {
	c net.Conn

	sendMu  sync.Mutex
	sendHdr [4]byte
	// sendVec backs sendBufs, the header and the message's parts handed to
	// the kernel in one writev. Both live here, under sendMu, because a
	// net.Buffers built per Send escapes through WriteTo and costs a heap
	// object per frame. sendVec starts on sendArr, room for a header and
	// one buffer, and keeps what the longest vector grew it to.
	sendArr  [2][]byte
	sendVec  [][]byte
	sendBufs net.Buffers

	recvMu sync.Mutex
	r      *bufio.Reader
	hdrBuf [4]byte
}

func newTCPConn(c net.Conn) *tcpConn {
	t := &tcpConn{c: c, r: bufio.NewReaderSize(c, recvBufSize)}
	t.sendVec = t.sendArr[:0]
	return t
}

func (t *tcpConn) Send(p []byte) error {
	one := [1][]byte{p}
	return t.sendVector(one[:])
}

// sendVector writes the header and every part in one writev.
func (t *tcpConn) sendVector(parts [][]byte) error {
	n, err := vectorLen(parts)
	if err != nil {
		return err
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	binary.BigEndian.PutUint32(t.sendHdr[:], uint32(n))
	t.sendVec = append(append(t.sendVec[:0], t.sendHdr[:]), parts...)
	t.sendBufs = t.sendVec
	_, err = t.sendBufs.WriteTo(t.c)
	clear(t.sendVec) // the parts belong to the caller again
	if err != nil {
		// A failed or short write leaves the stream mid-frame: the next
		// header would land inside this frame's payload. The connection is
		// unusable, so close it; both ends then see ErrClosed and redial.
		_ = t.c.Close()
		return t.mapErr(err)
	}
	return nil
}

func (t *tcpConn) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if _, err := io.ReadFull(t.r, t.hdrBuf[:]); err != nil {
		return nil, t.mapErr(err)
	}
	n := binary.BigEndian.Uint32(t.hdrBuf[:])
	if err := validateSize(int(n)); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(t.r, buf); err != nil {
		return nil, t.mapErr(err)
	}
	return buf, nil
}

func (t *tcpConn) mapErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}

func (t *tcpConn) Close() error { return t.c.Close() }

func (t *tcpConn) RemoteAddr() Addr { return Addr(t.c.RemoteAddr().String()) }
func (t *tcpConn) LocalAddr() Addr  { return Addr(t.c.LocalAddr().String()) }
