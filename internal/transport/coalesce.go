// Wire format v2 at the transport layer: batch frames and envelope
// coalescing. A batch frame packs several same-(session, src, dst)
// envelopes under one length prefix and one MAC:
//
//	u32 length ‖ 0x80 ‖ u64 session ‖ u64 from ‖ u64 to ‖ u16 count ‖
//	count × (u8 type ‖ u32 plen ‖ payload) ‖ 32-byte HMAC-SHA256
//
// The MAC covers everything between the length prefix and the tag, so
// envelopes can no more be spliced between batch frames than between
// v1 frames. The 0x80 marker occupies the position of the v1 type
// byte; protocol message types are small constants well below 0x80, so
// the two formats are distinguishable from the first inner byte and
// DecodeFrameMulti accepts both — a coalescing node interoperates with
// a v1-only peer in both directions.
//
// Coalescing is a per-destination flush queue that never waits on a
// clock: the first envelope of an empty queue starts a flush at once,
// and what queues before it takes the lock leaves in the same frame.
// The size watermark, or a send for a different session (one session
// per frame; switching flushes first, preserving per-link FIFO order),
// seals a frame at once.
package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"maps"
	"sync"
	"time"

	"hybriddkg/internal/msg"
)

// batchMarker distinguishes a batch frame from a v1 frame: it sits
// where v1 carries the message type, and no protocol type reaches it.
const batchMarker = 0x80

// batchOverhead is the inner (post-length-prefix) fixed cost of a
// batch frame: marker, session/from/to, envelope count, MAC.
const batchOverhead = 1 + 8 + 8 + 8 + 2 + sha256.Size

// batchEnvOverhead is the per-envelope sub-header: type byte plus u32
// payload length.
const batchEnvOverhead = 1 + 4

// coalesceBytes is the batch-frame size watermark.
const coalesceBytes = 16 << 10

// Retry budget for batch frames that could not be written. A batch
// frame concentrates a burst of protocol state — the dealer's send
// plus the first echoes can share one frame — so dropping it on a
// transient connection failure (a peer whose listener is not up yet,
// the classic cluster-start race) loses far more than a v1
// single-message frame would. Failed frames therefore stay queued and
// are retransmitted with exponential backoff (10ms … 1.28s, ~2.5s
// total) before being dropped; after the budget, semantics degrade to
// the v1 contract (drop, protocol-level help recovers).
const (
	coalesceRetryBase  = 10 * time.Millisecond
	coalesceMaxTries   = 8
	coalesceMaxBacklog = 1 << 20
)

// WireStats are the bytes-on-wire books of one transport node's send
// side. Frame costs (headers, MACs, sub-headers) are attributed to the
// frame counters and per-session totals; per-type counters carry each
// envelope's own bytes (type byte + payload, plus the whole v1 frame
// overhead when each envelope is its own frame).
type WireStats struct {
	// Frames and FrameBytes count physical frames written and their
	// total length including length prefixes — the headline bytes on
	// the wire.
	Frames     int
	FrameBytes int64
	// MsgCount and MsgBytes break traffic down by message type.
	MsgCount map[msg.Type]int
	MsgBytes map[msg.Type]int64
	// SessionFrames and SessionBytes break the frame books down by
	// protocol session.
	SessionFrames map[msg.SessionID]int
	SessionBytes  map[msg.SessionID]int64
	// CoalesceFlushes counts batch frames sealed by the coalescing
	// layer (zero on a v1-only node, where every envelope is its own
	// frame).
	CoalesceFlushes int
}

// wireBooks is the lock-protected mutable form inside Node.
type wireBooks struct {
	mu            sync.Mutex
	frames        int
	frameBytes    int64
	flushes       int
	msgCount      map[msg.Type]int
	msgBytes      map[msg.Type]int64
	sessionFrames map[msg.SessionID]int
	sessionBytes  map[msg.SessionID]int64
}

func newWireBooks() *wireBooks {
	return &wireBooks{
		msgCount:      make(map[msg.Type]int),
		msgBytes:      make(map[msg.Type]int64),
		sessionFrames: make(map[msg.SessionID]int),
		sessionBytes:  make(map[msg.SessionID]int64),
	}
}

func (w *wireBooks) addEnvelope(typ msg.Type, payloadLen int) {
	w.mu.Lock()
	w.msgCount[typ]++
	w.msgBytes[typ] += int64(1 + payloadLen)
	w.mu.Unlock()
}

func (w *wireBooks) addFrame(sid msg.SessionID, frameLen int, batch bool) {
	w.mu.Lock()
	if batch {
		w.flushes++
	}
	w.frames++
	w.frameBytes += int64(frameLen)
	w.sessionFrames[sid]++
	w.sessionBytes[sid] += int64(frameLen)
	w.mu.Unlock()
}

func (w *wireBooks) snapshot() WireStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WireStats{
		Frames:          w.frames,
		FrameBytes:      w.frameBytes,
		CoalesceFlushes: w.flushes,
		MsgCount:        maps.Clone(w.msgCount),
		MsgBytes:        maps.Clone(w.msgBytes),
		SessionFrames:   maps.Clone(w.sessionFrames),
		SessionBytes:    maps.Clone(w.sessionBytes),
	}
}

// WireStats returns a snapshot of the node's send-side wire books.
func (n *Node) WireStats() WireStats { return n.wire.snapshot() }

// pendingEnv is one envelope waiting in a destination's flush queue.
type pendingEnv struct {
	typ     msg.Type
	payload []byte
}

// destQueue is one destination's coalescing state. Its mutex also
// serialises the frame writes for the destination, so batch frames
// from the flush goroutine, the retry timer and the send path cannot
// interleave and per-link FIFO order is preserved.
type destQueue struct {
	mu   sync.Mutex
	sid  msg.SessionID
	envs []pendingEnv
	size int // projected batch-frame length so far (incl. fixed cost)
	// flushing: a flush goroutine (at most one) has yet to take mu.
	flushing bool
	retry    *time.Timer // backoff while the peer's connection fails
	// backlog holds sealed frames that have not been written yet —
	// normally empty, populated only while the peer's connection is
	// failing. FIFO; bounded by coalesceMaxBacklog.
	backlog      [][]byte
	backlogBytes int
	tries        int // consecutive failed transmissions to this peer
}

func (n *Node) destQ(to msg.NodeID) *destQueue {
	n.mu.Lock()
	defer n.mu.Unlock()
	q, ok := n.outQ[to]
	if !ok {
		q = &destQueue{}
		n.outQ[to] = q
	}
	return q
}

// sendCoalesced queues one envelope for batching toward a peer.
func (n *Node) sendCoalesced(sid msg.SessionID, to msg.NodeID, body msg.Body) {
	payload, err := body.MarshalBinary()
	if err != nil {
		return
	}
	n.wire.addEnvelope(body.MsgType(), len(payload))
	q := n.destQ(to)
	q.mu.Lock()
	n.queueLocked(to, q, sid, pendingEnv{typ: body.MsgType(), payload: payload})
	q.mu.Unlock()
}

// queueLocked appends one envelope to q, flushing around a session
// switch and at the size watermark, and otherwise starting a flush
// goroutine unless one is on its way. Callers hold q.mu.
func (n *Node) queueLocked(to msg.NodeID, q *destQueue, sid msg.SessionID, env pendingEnv) {
	if len(q.envs) > 0 && q.sid != sid {
		n.flushLocked(to, q)
	}
	if len(q.envs) == 0 {
		q.sid = sid
		q.size = 4 + batchOverhead
	}
	q.envs = append(q.envs, env)
	q.size += batchEnvOverhead + len(env.payload)
	switch {
	case q.size >= coalesceBytes:
		n.flushLocked(to, q)
	case q.flushing || q.retry != nil:
		// Rides with the flush already on its way.
	case !n.track():
		n.flushLocked(to, q) // closed: nothing joins a goroutine now
	default:
		q.flushing = true
		go func() {
			defer n.wg.Done()
			q.mu.Lock()
			q.flushing = false
			n.flushLocked(to, q)
			q.mu.Unlock()
		}()
	}
}

// track counts a goroutine for Close to join unless the node is closed;
// Close sets closed under n.mu before it waits, so no Add races Wait.
func (n *Node) track() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	return true
}

// flushDest drains a destination's queue (retry and Close path).
func (n *Node) flushDest(to msg.NodeID) {
	q := n.destQ(to)
	q.mu.Lock()
	defer q.mu.Unlock()
	n.flushLocked(to, q)
}

// flushLocked seals the pending batch frame onto the backlog and
// drains it. Callers hold q.mu.
func (n *Node) flushLocked(to msg.NodeID, q *destQueue) {
	if q.retry != nil {
		q.retry.Stop()
		q.retry = nil
	}
	if len(q.envs) > 0 {
		frame := appendBatchFrame(nil, n.cfg.Secret, q.sid, n.cfg.Self, to, q.envs)
		n.wire.addFrame(q.sid, len(frame), true)
		q.envs, q.size = nil, 0
		q.backlog = append(q.backlog, frame)
		q.backlogBytes += len(frame)
		// Bound memory toward a long-dead peer: shed the oldest
		// frames first, keeping the newest protocol state.
		for q.backlogBytes > coalesceMaxBacklog && len(q.backlog) > 1 {
			q.backlogBytes -= len(q.backlog[0])
			q.backlog = q.backlog[1:]
		}
	}
	n.drainLocked(to, q)
}

// drainLocked writes the backlog in order. A connection failure leaves
// the remainder queued and arms a backoff retry, up to the retry
// budget; each frame is written at most once, so a successful write is
// never duplicated by a later retry.
func (n *Node) drainLocked(to msg.NodeID, q *destQueue) {
	for len(q.backlog) > 0 {
		conn, err := n.conn(to)
		if err == nil {
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, werr := conn.Write(q.backlog[0]); werr != nil {
				n.dropConn(to, conn)
				err = werr
			}
		}
		if err != nil {
			// A closed endpoint will never drain the backlog.
			if q.tries++; errors.Is(err, ErrClosed) || q.tries > coalesceMaxTries {
				q.backlog, q.backlogBytes, q.tries = nil, 0, 0
				return
			}
			q.retry = time.AfterFunc(coalesceRetryBase<<(q.tries-1), func() { n.flushDest(to) })
			return
		}
		q.tries = 0
		q.backlogBytes -= len(q.backlog[0])
		q.backlog = q.backlog[1:]
	}
}

// flushAll drains every destination queue (Close path).
func (n *Node) flushAll() {
	n.mu.Lock()
	dests := make([]msg.NodeID, 0, len(n.outQ))
	for to := range n.outQ {
		dests = append(dests, to)
	}
	n.mu.Unlock()
	for _, to := range dests {
		n.flushDest(to)
	}
}

// SealBatchFrame builds one batch frame from pre-marshalled envelopes
// (exposed for tests and fuzz seeding).
func SealBatchFrame(secret []byte, sid msg.SessionID, from, to msg.NodeID, bodies []msg.Body) ([]byte, error) {
	envs := make([]pendingEnv, len(bodies))
	for i, b := range bodies {
		payload, err := b.MarshalBinary()
		if err != nil {
			return nil, err
		}
		envs[i] = pendingEnv{typ: b.MsgType(), payload: payload}
	}
	return appendBatchFrame(nil, secret, sid, from, to, envs), nil
}

func appendBatchFrame(buf, secret []byte, sid msg.SessionID, from, to msg.NodeID, envs []pendingEnv) []byte {
	innerLen := batchOverhead
	for _, e := range envs {
		innerLen += batchEnvOverhead + len(e.payload)
	}
	out := append(buf, 0, 0, 0, 0)
	out = append(out, batchMarker)
	out = binary.BigEndian.AppendUint64(out, uint64(sid))
	out = binary.BigEndian.AppendUint64(out, uint64(from))
	out = binary.BigEndian.AppendUint64(out, uint64(to))
	out = binary.BigEndian.AppendUint16(out, uint16(len(envs)))
	for _, e := range envs {
		out = append(out, byte(e.typ))
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.payload)))
		out = append(out, e.payload...)
	}
	mac := hmac.New(sha256.New, secret)
	mac.Write(out[len(buf)+4:])
	out = mac.Sum(out)
	binary.BigEndian.PutUint32(out[len(buf):], uint32(innerLen))
	return out
}

// DecodeFrameMulti authenticates and decodes a frame's inner bytes in
// either wire format: a v1 frame yields one body, a batch frame yields
// its packed bodies in order. Like DecodeFrame it is pure and decoded
// bodies never alias inner.
func DecodeFrameMulti(codec *msg.Codec, secret []byte, self msg.NodeID, inner []byte) (msg.SessionID, msg.NodeID, []msg.Body, error) {
	if len(inner) == 0 {
		return 0, 0, nil, ErrBadFrame
	}
	if inner[0] != batchMarker {
		sid, from, body, err := DecodeFrame(codec, secret, self, inner)
		if err != nil {
			return 0, 0, nil, err
		}
		return sid, from, []msg.Body{body}, nil
	}
	if len(inner) < batchOverhead {
		return 0, 0, nil, ErrBadFrame
	}
	signed := inner[:len(inner)-sha256.Size]
	tag := inner[len(inner)-sha256.Size:]
	mac := hmac.New(sha256.New, secret)
	mac.Write(signed)
	if !hmac.Equal(mac.Sum(nil), tag) {
		return 0, 0, nil, ErrBadFrame
	}
	sid := msg.SessionID(binary.BigEndian.Uint64(signed[1:9]))
	from := msg.NodeID(binary.BigEndian.Uint64(signed[9:17]))
	to := msg.NodeID(binary.BigEndian.Uint64(signed[17:25]))
	if to != self {
		return 0, 0, nil, ErrBadFrame
	}
	count := int(binary.BigEndian.Uint16(signed[25:27]))
	if count == 0 {
		return 0, 0, nil, ErrBadFrame
	}
	rest := signed[27:]
	bodies := make([]msg.Body, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < batchEnvOverhead {
			return 0, 0, nil, ErrBadFrame
		}
		typ := msg.Type(rest[0])
		plen := int(binary.BigEndian.Uint32(rest[1:5]))
		rest = rest[batchEnvOverhead:]
		if plen > len(rest) {
			return 0, 0, nil, ErrBadFrame
		}
		decoded, err := codec.Decode(typ, rest[:plen])
		if err != nil {
			return 0, 0, nil, err
		}
		bodies = append(bodies, decoded)
		rest = rest[plen:]
	}
	if len(rest) != 0 {
		return 0, 0, nil, ErrBadFrame
	}
	return sid, from, bodies, nil
}
