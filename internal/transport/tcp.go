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

	// A write's scratch (a net.Buffers built per write would escape): the
	// headers, and the headers and parts handed to the kernel in one writev.
	// Room for two frames of one buffer, then what the largest batch grew.
	sendMu   sync.Mutex
	sendHdr  [2 * 4]byte
	sendArr  [2 * 2][]byte
	sendHdrs []byte
	sendVec  [][]byte
	sendBufs net.Buffers

	recvMu sync.Mutex
	r      *bufio.Reader
	hdrBuf [4]byte
}

func newTCPConn(c net.Conn) *tcpConn {
	t := &tcpConn{c: c, r: bufio.NewReaderSize(c, recvBufSize)}
	t.sendHdrs, t.sendVec = t.sendHdr[:0], t.sendArr[:0]
	return t
}

func (t *tcpConn) Send(p []byte) error {
	msgs, errs := [1][][]byte{{p}}, [1]error{}
	t.sendBatch(msgs[:], errs[:])
	return errs[0]
}

// sendBatch writes every message, each behind its own header, in one
// writev. A message over MaxMessageSize is refused before the write.
func (t *tcpConn) sendBatch(msgs [][][]byte, errs []error) {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.sendHdrs, t.sendVec = t.sendHdrs[:0], t.sendVec[:0]
	for i, parts := range msgs {
		n, err := vectorLen(parts)
		if errs[i] = err; err != nil {
			continue
		}
		h := len(t.sendHdrs)
		t.sendHdrs = binary.BigEndian.AppendUint32(t.sendHdrs, uint32(n))
		t.sendVec = append(append(t.sendVec, t.sendHdrs[h:h+4:h+4]), parts...)
	}
	if len(t.sendVec) == 0 {
		return // every message refused
	}
	t.sendBufs = t.sendVec
	_, err := t.sendBufs.WriteTo(t.c)
	clear(t.sendVec) // the parts belong to the caller again
	if err == nil {
		return
	}
	// A failed or short write leaves the stream mid-frame: the next header
	// would land inside a frame's payload. The connection is unusable, so
	// close it; both ends then see ErrClosed and redial.
	_ = t.c.Close()
	err = fmt.Errorf("%w: %w", ErrClosed, err)
	for i := range errs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
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
