// Client protocol: how external (non-share-holding) clients talk to a
// serving node. Every stream message is one length-prefixed frame
//
//	u32 len ‖ u8 type ‖ payload
//
// over plain TCP (the same framing the peer transport uses; clients
// are not cluster members, so there is no HMAC lane — deployments
// front this port with TLS or a local socket). A connection opens
// with a versioned ClientHello and is rejected on magic or version
// mismatch; afterwards requests are tagged with a client-chosen
// request ID, responses may arrive out of order, and pipelined
// requests on one connection coalesce into server-side batches.
package dataplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/thresh"
	"hybriddkg/internal/transport"
)

// Protocol constants.
const (
	// ClientMagic opens every ClientHello.
	ClientMagic = "DKDP"
	// ClientVersion is the protocol version this build speaks.
	ClientVersion uint16 = 2
	// MaxClientFrame bounds one frame (a signing message must fit).
	MaxClientFrame = 1 << 20
)

// Frame types. Requests are < 0x80, responses have the high bit set.
const (
	FClientHello uint8 = 0x01
	FSignReq     uint8 = 0x02
	FDecryptReq  uint8 = 0x03
	FBeaconReq   uint8 = 0x04
	FKeyInfoReq  uint8 = 0x05

	FServerHello uint8 = 0x81
	FSignResp    uint8 = 0x82
	FDecryptResp uint8 = 0x83
	FBeaconResp  uint8 = 0x84
	FKeyInfoResp uint8 = 0x85
	FError       uint8 = 0xFF
)

// Error codes carried by FError frames.
const (
	CodeBadVersion uint8 = 1
	CodeMalformed  uint8 = 2
	CodeUnknownKey uint8 = 3
	CodeOverloaded uint8 = 4
	CodeNotReady   uint8 = 5
	CodeInternal   uint8 = 6
	CodeRetiring   uint8 = 7
	CodeBadRequest uint8 = 8
)

// ClientError is a server-reported request failure.
type ClientError struct {
	Code   uint8
	Detail string
}

// Error implements error.
func (e *ClientError) Error() string {
	name := map[uint8]string{
		CodeBadVersion: "bad-version", CodeMalformed: "malformed",
		CodeUnknownKey: "unknown-key", CodeOverloaded: "overloaded",
		CodeNotReady: "not-ready", CodeInternal: "internal",
		CodeRetiring: "retiring", CodeBadRequest: "bad-request",
	}[e.Code]
	if name == "" {
		name = fmt.Sprintf("code-%d", e.Code)
	}
	if e.Detail == "" {
		return "dataplane: server error: " + name
	}
	return "dataplane: server error: " + name + ": " + e.Detail
}

func writeFrame(w io.Writer, ftype uint8, payload []byte) error {
	buf := make([]byte, 0, 1+len(payload))
	buf = append(buf, ftype)
	buf = append(buf, payload...)
	return transport.WriteLengthPrefixed(w, buf)
}

func readFrame(r io.Reader) (uint8, []byte, error) {
	buf, err := transport.ReadLengthPrefixed(r, MaxClientFrame)
	if err != nil {
		return 0, nil, err
	}
	if len(buf) == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", msg.ErrBadEnvelope)
	}
	return buf[0], buf[1:], nil
}

// Server serves the client protocol from one node's Service.
type Server struct {
	svc *Service
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving the client protocol on ln. Its hello names
// the service's group.
func NewServer(ln net.Listener, svc *Service) *Server {
	s := &Server{svc: svc, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and tears down open connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// connWriter serializes response writes from service callbacks.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (w *connWriter) send(ftype uint8, payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = writeFrame(w.conn, ftype, payload)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	cw := &connWriter{conn: conn}
	br := bufio.NewReader(conn)

	// Handshake: a versioned ClientHello within a deadline.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ftype, payload, err := readFrame(br)
	if err != nil {
		return
	}
	if ftype != FClientHello || len(payload) != len(ClientMagic)+2 ||
		string(payload[:4]) != ClientMagic {
		cw.send(FError, errorPayload(0, CodeMalformed, "expected ClientHello"))
		return
	}
	ver := uint16(payload[4])<<8 | uint16(payload[5])
	if ver != ClientVersion {
		cw.send(FError, errorPayload(0, CodeBadVersion,
			fmt.Sprintf("server speaks version %d, client sent %d", ClientVersion, ver)))
		return
	}
	w := msg.NewWriter(32)
	w.U8(0) // reserved
	w.Blob([]byte(s.svc.gr.Name()))
	w.U32(uint32(s.svc.cfg.N))
	w.U32(uint32(s.svc.cfg.T))
	hello := append([]byte{byte(ClientVersion >> 8), byte(ClientVersion)}, w.Bytes()...)
	cw.send(FServerHello, hello)
	_ = conn.SetReadDeadline(time.Time{})

	gr := s.svc.gr
	for {
		ftype, payload, err := readFrame(br)
		if err != nil {
			return
		}
		r := msg.NewReader(payload)
		reqID := r.U64()
		keyID := msg.SessionID(r.U64())
		malformed := func(detail string) {
			cw.send(FError, errorPayload(reqID, CodeMalformed, detail))
		}
		switch ftype {
		case FSignReq:
			message := r.Blob()
			if r.Done() != nil {
				malformed("bad sign request")
				return
			}
			id := reqID
			err := s.svc.Sign(keyID, message, func(res Result, err error) {
				s.reply(cw, id, FSignResp, err, func(w *msg.Writer) {
					w.Blob(gr.EncodeCompressed(res.Sig.R))
					w.Big(res.Sig.Sigma)
				})
			})
			s.syncErr(cw, id, err)
		case FDecryptReq:
			b1 := r.Blob()
			b2 := r.Blob()
			if r.Done() != nil {
				malformed("bad decrypt request")
				return
			}
			c1, err1 := gr.DecodeCompressed(b1)
			c2, err2 := gr.DecodeCompressed(b2)
			if err1 != nil || err2 != nil {
				cw.send(FError, errorPayload(reqID, CodeBadRequest, "ciphertext not group elements"))
				continue
			}
			id := reqID
			err := s.svc.Decrypt(keyID, thresh.Ciphertext{C1: c1, C2: c2}, func(res Result, err error) {
				s.reply(cw, id, FDecryptResp, err, func(w *msg.Writer) {
					w.Blob(gr.EncodeCompressed(res.Plain))
				})
			})
			s.syncErr(cw, id, err)
		case FBeaconReq:
			round := r.U64()
			if r.Done() != nil {
				malformed("bad beacon request")
				return
			}
			id := reqID
			err := s.svc.Beacon(keyID, round, func(res Result, err error) {
				s.reply(cw, id, FBeaconResp, err, func(w *msg.Writer) {
					w.U64(res.Beacon.Round)
					w.Blob(res.Beacon.Output[:])
					w.Blob(gr.EncodeCompressed(res.Beacon.Value))
				})
			})
			s.syncErr(cw, id, err)
		case FKeyInfoReq:
			if r.Done() != nil {
				malformed("bad key-info request")
				return
			}
			info, ok := s.svc.KeyInfo(keyID)
			if !ok {
				cw.send(FError, errorPayload(reqID, CodeUnknownKey, ""))
				continue
			}
			w := msg.NewWriter(64)
			w.U64(reqID)
			w.Blob(gr.EncodeCompressed(info.PublicKey))
			w.U32(uint32(info.N))
			w.U32(uint32(info.T))
			w.U8(uint8(info.State))
			cw.send(FKeyInfoResp, w.Bytes())
			continue
		default:
			cw.send(FError, errorPayload(0, CodeMalformed, fmt.Sprintf("unknown frame type 0x%02x", ftype)))
			return
		}
		// Pipelined requests batch naturally: flush the key's queue
		// only when this connection has no more buffered frames.
		if br.Buffered() == 0 {
			s.svc.Flush(keyID)
		}
	}
}

// reply writes a success response (built by fill) or the mapped error.
func (s *Server) reply(cw *connWriter, reqID uint64, ftype uint8, err error, fill func(*msg.Writer)) {
	if err != nil {
		cw.send(FError, errorPayload(reqID, errCode(err), err.Error()))
		return
	}
	w := msg.NewWriter(128)
	w.U64(reqID)
	fill(w)
	cw.send(ftype, w.Bytes())
}

// syncErr reports a synchronous rejection (admission control etc.).
func (s *Server) syncErr(cw *connWriter, reqID uint64, err error) {
	if err != nil {
		cw.send(FError, errorPayload(reqID, errCode(err), err.Error()))
	}
}

func errCode(err error) uint8 {
	switch {
	case errors.Is(err, ErrUnknownKey):
		return CodeUnknownKey
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrRetiring):
		return CodeRetiring
	case errors.Is(err, ErrUnavailable):
		return CodeNotReady
	default:
		return CodeInternal
	}
}

func errorPayload(reqID uint64, code uint8, detail string) []byte {
	w := msg.NewWriter(16 + len(detail))
	w.U64(reqID)
	w.U8(code)
	w.Blob([]byte(detail))
	return w.Bytes()
}

// Client speaks the client protocol against one serving node.
type Client struct {
	conn net.Conn
	gr   *group.Group
	n, t int

	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan clientReply
	err     error
	wmu     sync.Mutex
}

type clientReply struct {
	ftype   uint8
	payload []byte
}

// ServedGroup is the only group a client accepts from a server hello.
const ServedGroup = "p256"

// ErrUnsupportedGroup is returned by Dial when the server's hello names
// a group other than ServedGroup.
var ErrUnsupportedGroup = errors.New("dataplane: server group is not " + ServedGroup)

// Dial connects, performs the hello exchange and starts the response
// dispatcher. It refuses a server whose hello names any group other
// than ServedGroup.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	hello := append([]byte(ClientMagic), byte(ClientVersion>>8), byte(ClientVersion))
	if err := writeFrame(conn, FClientHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	ftype, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ftype == FError {
		conn.Close()
		return nil, decodeError(payload)
	}
	if ftype != FServerHello || len(payload) < 3 {
		conn.Close()
		return nil, fmt.Errorf("%w: unexpected handshake frame 0x%02x", msg.ErrBadEnvelope, ftype)
	}
	r := msg.NewReader(payload[2:])
	r.U8() // reserved
	groupName := string(r.Blob())
	n := int(r.U32())
	t := int(r.U32())
	if err := r.Done(); err != nil {
		conn.Close()
		return nil, err
	}
	if groupName != ServedGroup {
		// A client that adopted the server's choice would check the
		// server's signatures and plaintexts in whatever group it names.
		conn.Close()
		return nil, fmt.Errorf("%w: %q", ErrUnsupportedGroup, groupName)
	}
	_ = conn.SetReadDeadline(time.Time{})
	c := &Client{
		conn: conn, gr: group.P256(), n: n, t: t,
		pending: make(map[uint64]chan clientReply),
	}
	go c.readLoop(br)
	return c, nil
}

// Group returns the cluster's group parameters (P-256: Dial refuses
// any other).
func (c *Client) Group() *group.Group { return c.gr }

// GroupName returns the cluster's group parameter set name.
func (c *Client) GroupName() string { return c.gr.Name() }

// Roster returns the cluster's (n, t).
func (c *Client) Roster() (n, t int) { return c.n, c.t }

// Close tears the connection down; outstanding calls fail.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) readLoop(br *bufio.Reader) {
	for {
		ftype, payload, err := readFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		if len(payload) < 8 {
			c.fail(fmt.Errorf("%w: short response", msg.ErrBadEnvelope))
			return
		}
		reqID := msg.NewReader(payload[:8]).U64()
		c.mu.Lock()
		ch := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ch != nil {
			ch <- clientReply{ftype: ftype, payload: payload}
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pend := c.pending
	c.pending = make(map[uint64]chan clientReply)
	c.mu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
}

// call sends one request frame and waits for its response.
func (c *Client) call(ctx context.Context, ftype uint8, build func(reqID uint64) []byte) (clientReply, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return clientReply{}, err
	}
	c.nextReq++
	reqID := c.nextReq
	ch := make(chan clientReply, 1)
	c.pending[reqID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeFrame(c.conn, ftype, build(reqID))
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		return clientReply{}, err
	}
	select {
	case rep, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return clientReply{}, err
		}
		if rep.ftype == FError {
			return clientReply{}, decodeError(rep.payload)
		}
		return rep, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		return clientReply{}, ctx.Err()
	}
}

func decodeError(payload []byte) error {
	r := msg.NewReader(payload)
	r.U64() // request id
	code := r.U8()
	detail := string(r.Blob())
	if r.Done() != nil {
		return fmt.Errorf("%w: malformed error frame", msg.ErrBadEnvelope)
	}
	return &ClientError{Code: code, Detail: detail}
}

// Sign requests a threshold signature over message under key.
func (c *Client) Sign(ctx context.Context, key uint64, message []byte) (thresh.Signature, error) {
	rep, err := c.call(ctx, FSignReq, func(reqID uint64) []byte {
		w := msg.NewWriter(24 + len(message))
		w.U64(reqID)
		w.U64(key)
		w.Blob(message)
		return w.Bytes()
	})
	if err != nil {
		return thresh.Signature{}, err
	}
	r := msg.NewReader(rep.payload)
	r.U64()
	rb := r.Blob()
	sigma := r.Big()
	if err := r.Done(); err != nil {
		return thresh.Signature{}, err
	}
	R, err := c.gr.DecodeCompressed(rb)
	if err != nil {
		return thresh.Signature{}, err
	}
	return thresh.Signature{R: R, Sigma: sigma}, nil
}

// Decrypt requests a verified threshold decryption of (c1, c2).
func (c *Client) Decrypt(ctx context.Context, key uint64, ct thresh.Ciphertext) (group.Element, error) {
	rep, err := c.call(ctx, FDecryptReq, func(reqID uint64) []byte {
		w := msg.NewWriter(64)
		w.U64(reqID)
		w.U64(key)
		w.Blob(c.gr.EncodeCompressed(ct.C1))
		w.Blob(c.gr.EncodeCompressed(ct.C2))
		return w.Bytes()
	})
	if err != nil {
		return nil, err
	}
	r := msg.NewReader(rep.payload)
	r.U64()
	mb := r.Blob()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c.gr.DecodeCompressed(mb)
}

// Beacon pulls one round of key's randomness beacon. The result
// carries the coin value, so the caller can check Output =
// BeaconOutput(round, Value).
func (c *Client) Beacon(ctx context.Context, key uint64, round uint64) (BeaconResult, error) {
	rep, err := c.call(ctx, FBeaconReq, func(reqID uint64) []byte {
		w := msg.NewWriter(24)
		w.U64(reqID)
		w.U64(key)
		w.U64(round)
		return w.Bytes()
	})
	if err != nil {
		return BeaconResult{}, err
	}
	r := msg.NewReader(rep.payload)
	r.U64()
	out := BeaconResult{Round: r.U64()}
	ob := r.Blob()
	vb := r.Blob()
	if err := r.Done(); err != nil {
		return BeaconResult{}, err
	}
	if len(ob) != 32 {
		return BeaconResult{}, fmt.Errorf("%w: beacon output length %d", msg.ErrBadEnvelope, len(ob))
	}
	copy(out.Output[:], ob)
	out.Value, err = c.gr.DecodeCompressed(vb)
	if err != nil {
		return BeaconResult{}, err
	}
	return out, nil
}

// KeyInfo fetches a key's public description.
func (c *Client) KeyInfo(ctx context.Context, key uint64) (KeyInfo, error) {
	rep, err := c.call(ctx, FKeyInfoReq, func(reqID uint64) []byte {
		w := msg.NewWriter(16)
		w.U64(reqID)
		w.U64(key)
		return w.Bytes()
	})
	if err != nil {
		return KeyInfo{}, err
	}
	r := msg.NewReader(rep.payload)
	r.U64()
	pkb := r.Blob()
	n := int(r.U32())
	t := int(r.U32())
	state := KeyState(r.U8())
	if err := r.Done(); err != nil {
		return KeyInfo{}, err
	}
	pk, err := c.gr.DecodeCompressed(pkb)
	if err != nil {
		return KeyInfo{}, err
	}
	return KeyInfo{ID: msg.SessionID(key), PublicKey: pk, N: n, T: t, State: state}, nil
}
