// Package transport runs the protocol state machines over real TCP
// connections, one OS process per node (cmd/dkgnode). It substitutes
// the paper's TLS links (§2.3) with HMAC-SHA256-authenticated frames
// over TCP: the protocol logic consumes only channel *authentication*
// (who sent this message), which the MAC provides; confidentiality of
// the row polynomials in send messages additionally relies on the
// deployment network in this reproduction, as recorded in DESIGN.md.
//
// All inbound messages and timer expiries are serialised onto a single
// event loop, preserving the deterministic-state-machine discipline
// the protocol packages require. Senders retry with backoff (the
// paper's §2.1 retransmission-until-received behaviour); undeliverable
// messages are dropped once the node stops — protocol-level help
// retransmission covers longer outages.
//
// A node is session-multiplexed: every frame carries a MAC-covered
// session identifier, and a demultiplexing router dispatches inbound
// traffic to per-session handlers registered with RegisterSession.
// Frames for sessions the node has already retired are rejected at the
// router — before any decode of protocol semantics — and counted in
// DemuxStats; messages for sessions it has not registered yet wait for
// the registration in a bounded buffer (early.go) and are rejected the
// same way when none comes. Because the MAC covers the session
// identifier, an attacker without the link secret cannot splice a
// frame captured in one session into another; a Byzantine *member*
// (which holds the shared secret) can re-seal, so protocol messages
// additionally carry their own session counters as defence in depth.
// Sessions share the node's TCP links and its event loop — S
// concurrent protocol instances cost one socket per peer, not S.
package transport

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"hybriddkg/internal/msg"
)

// Errors returned by the transport.
var (
	ErrBadConfig      = errors.New("transport: invalid configuration")
	ErrClosed         = errors.New("transport: node closed")
	ErrBadFrame       = errors.New("transport: malformed or unauthenticated frame")
	ErrSessionExists  = errors.New("transport: session already registered")
	ErrSessionRetired = errors.New("transport: session already retired")
)

// Handler consumes serialised events, mirroring the simulator's
// interface so the same protocol adapters work in both runtimes.
type Handler interface {
	HandleMessage(from msg.NodeID, body msg.Body)
	HandleTimer(id uint64)
	HandleRecover()
}

// Peer names a remote node.
type Peer struct {
	ID   msg.NodeID
	Addr string
}

// Config configures a transport node.
type Config struct {
	// Self is this node's index; Listen its bind address.
	Self   msg.NodeID
	Listen string
	// Peers lists all nodes (including self, whose entry is ignored
	// for dialing).
	Peers []Peer
	// Codec decodes inbound payloads into typed bodies.
	Codec *msg.Codec
	// Secret keys the frame MACs; all nodes share it (the stand-in
	// for the paper's mutually authenticated TLS links).
	Secret []byte
	// Handler receives default-session (session 0) events on the
	// event loop. It may be nil when the node is used purely as a
	// session-multiplexed endpoint (RegisterSession); session-0
	// frames are then dropped as unknown.
	Handler Handler
	// TimerUnit scales protocol timer delays (virtual units) to wall
	// time. Default: 1ms per unit.
	TimerUnit time.Duration
	// DialRetry is the reconnect backoff (default 250ms).
	DialRetry time.Duration
	// Observer, when set, sees every successfully decoded inbound
	// protocol message (including self-delivery) of a live session —
	// one with a registered, un-retired handler — before it is
	// dispatched; stragglers of finished sessions and frames of
	// sessions this node never hosted are not worth a look ahead. It
	// is the attachment point of the verification
	// pipeline's speculator: read-loop goroutines feed it concurrently
	// while the event loop (or session lane) is still working through
	// earlier traffic, so expensive checks run on idle cores ahead of
	// consumption. It must be safe for concurrent use, must not block,
	// and must not touch protocol state or call back into the Node
	// (RegisterSession shows it the messages held for the session while
	// holding the node's lock).
	Observer func(sid msg.SessionID, from msg.NodeID, body msg.Body)
	// Coalesce enables wire-format-v2 batch frames on the send side:
	// a per-peer flush queue starts a flush as soon as an envelope
	// queues, and what queues before it reaches the link shares its
	// MAC-covered frame (coalesce.go). Inbound decoding always accepts
	// both formats, so coalescing and v1-only nodes interoperate.
	Coalesce bool
	// ShardSessions gives every registered session its own serial
	// dispatch lane (one goroutine per live session) instead of
	// funnelling all sessions through the single event loop. Events of
	// one session stay strictly ordered on its lane — the protocol
	// state machines keep their single-threaded discipline — while S
	// concurrent sessions occupy up to S cores. The default session
	// (0) and operator ops always stay on the main event loop.
	// Handlers of different sessions may then run concurrently: the
	// engine's bookkeeping is lock-protected, but callers holding
	// cross-session state in handlers must synchronise it themselves.
	ShardSessions bool
}

// Node is a live transport endpoint. It implements dkg.Runtime (Send,
// SetTimer, StopTimer) so protocol nodes can be constructed directly
// on top of it.
type Node struct {
	cfg      Config
	listener net.Listener

	done chan struct{}

	// queue is the unbounded serialised event queue: handlers may
	// enqueue (self-sends) while the loop is mid-dispatch without
	// any deadlock risk.
	qmu   sync.Mutex
	qcond *sync.Cond
	queue []event

	mu       sync.Mutex
	conns    map[msg.NodeID]net.Conn
	inbound  map[net.Conn]bool
	timers   map[timerKey]*time.Timer
	sessions map[msg.SessionID]Handler
	retired  map[msg.SessionID]bool
	lanes    map[msg.SessionID]*lane // ShardSessions dispatch lanes
	early    *earlyBuffer            // messages of sessions not yet registered
	outQ     map[msg.NodeID]*destQueue
	demux    DemuxStats
	closed   bool

	// wire holds the send-side bytes-on-wire books.
	wire *wireBooks

	wg sync.WaitGroup
}

// lane is one session's serial dispatch queue: an unbounded
// mutex+cond queue (the same shape as the main event loop's, so a
// handler's self-sends can never deadlock on a full channel) drained
// by a dedicated goroutine. Events of the session are dispatched in
// enqueue order; nothing else ever invokes the session's handler.
type lane struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []event
	stopped bool
}

func newLane() *lane {
	l := &lane{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *lane) enqueue(ev event) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, ev)
	l.mu.Unlock()
	l.cond.Signal()
}

// stop marks the lane dead and wakes its goroutine. It never joins:
// RetireSession may run on the lane's own goroutine (a session
// completing retires itself through the engine), so joining here
// would self-deadlock; Close joins through the node's WaitGroup.
func (l *lane) stop() {
	l.mu.Lock()
	l.stopped = true
	l.queue = nil
	l.mu.Unlock()
	l.cond.Broadcast()
}

// run drains the lane until stopped. Pending events at stop time are
// dropped — the session is retired, and the router would reject them
// anyway.
func (n *Node) runLane(l *lane) {
	defer n.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.stopped {
			l.cond.Wait()
		}
		if l.stopped {
			l.mu.Unlock()
			return
		}
		ev := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()
		n.dispatchEvent(ev, l)
	}
}

// timerKey namespaces timers per session so concurrent protocol
// instances can reuse the same local timer identifiers.
type timerKey struct {
	session msg.SessionID
	id      uint64
}

// DemuxStats counts traffic rejected by the session router.
type DemuxStats struct {
	// UnknownSession counts frames for sessions this node never
	// hosted; StaleSession counts frames for retired sessions
	// (completed-session replay). BadFrame counts frames that failed
	// length or MAC checks — including cross-session splices, since
	// the MAC covers the session identifier.
	UnknownSession int
	StaleSession   int
	BadFrame       int
	// The early-frame buffer's books, in messages like the counters
	// above: EarlyHeld were taken in ahead of their session's
	// registration, EarlyReleased reached the session when it registered,
	// EarlyExpired waited out the expiry and EarlyOverflow did not fit a
	// budget. The last two are each counted in UnknownSession as well.
	EarlyHeld     int
	EarlyReleased int
	EarlyExpired  int
	EarlyOverflow int
}

type event struct {
	kind    uint8 // 1 = message, 2 = timer, 3 = recover, 4 = op
	session msg.SessionID
	from    msg.NodeID
	body    msg.Body
	timerID uint64
	op      func()
	// wire is a received message's share of its frame's bytes on the
	// wire, what the early-frame buffer charges for holding it.
	wire int
}

// Listen starts the endpoint: binds the listener, starts the accept
// and event loops, and begins dialing peers lazily on first send.
func Listen(cfg Config) (*Node, error) {
	if cfg.Self < 1 || cfg.Codec == nil || len(cfg.Secret) == 0 {
		return nil, fmt.Errorf("%w: missing self/codec/secret", ErrBadConfig)
	}
	if cfg.TimerUnit <= 0 {
		cfg.TimerUnit = time.Millisecond
	}
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 250 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	n := &Node{
		cfg:      cfg,
		listener: ln,
		done:     make(chan struct{}),
		conns:    make(map[msg.NodeID]net.Conn),
		inbound:  make(map[net.Conn]bool),
		timers:   make(map[timerKey]*time.Timer),
		sessions: make(map[msg.SessionID]Handler),
		retired:  make(map[msg.SessionID]bool),
		lanes:    make(map[msg.SessionID]*lane),
		early:    newEarlyBuffer(),
		outQ:     make(map[msg.NodeID]*destQueue),
		wire:     newWireBooks(),
	}
	n.qcond = sync.NewCond(&n.qmu)
	n.wg.Add(2)
	go n.acceptLoop()
	go n.eventLoop()
	return n, nil
}

// enqueue appends an event to the serialised queue, or — for message
// and timer events of a sharded session — to that session's dispatch
// lane.
func (n *Node) enqueue(ev event) {
	if (ev.kind == 1 || ev.kind == 2) && ev.session != 0 {
		if l := n.laneFor(ev.session); l != nil {
			l.enqueue(ev)
			return
		}
	}
	n.qmu.Lock()
	n.queue = append(n.queue, ev)
	n.qmu.Unlock()
	n.qcond.Signal()
}

// laneFor returns the dispatch lane of a sharded session (nil when
// sharding is off or the session has no lane).
func (n *Node) laneFor(sid msg.SessionID) *lane {
	if !n.cfg.ShardSessions {
		return nil
	}
	n.mu.Lock()
	l := n.lanes[sid]
	n.mu.Unlock()
	return l
}

// observe shows one inbound message of a live session to the
// configured observer.
func (n *Node) observe(sid msg.SessionID, from msg.NodeID, body msg.Body) {
	if n.cfg.Observer != nil && n.handlerFor(sid) != nil {
		n.cfg.Observer(sid, from, body)
	}
}

// Do runs fn on the event loop — operator actions (starting a
// protocol, injecting inputs) must go through here so protocol state
// machines are only ever touched by one goroutine.
func (n *Node) Do(fn func()) {
	n.enqueue(event{kind: 4, op: fn})
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.listener.Addr().String() }

// SetPeers installs or replaces the peer directory. It allows
// clusters to bind all listeners on ephemeral ports first and
// exchange addresses afterwards.
func (n *Node) SetPeers(peers []Peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Peers = append([]Peer(nil), peers...)
}

// Close shuts the endpoint down and waits for its goroutines. Pending
// coalesced envelopes are flushed first so a clean shutdown leaves no
// protocol traffic stranded in the batching queues.
func (n *Node) Close() error {
	n.flushAll()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for _, tm := range n.timers {
		tm.Stop()
	}
	if n.early.timer != nil {
		n.early.timer.Stop()
	}
	for _, c := range n.conns {
		c.Close()
	}
	for c := range n.inbound {
		c.Close()
	}
	for sid, l := range n.lanes {
		l.stop()
		delete(n.lanes, sid)
	}
	n.mu.Unlock()
	close(n.done)
	// Under qmu, so the wake-up cannot fall between the event loop's
	// check of done and its Wait.
	n.qmu.Lock()
	n.qcond.Broadcast()
	n.qmu.Unlock()
	n.listener.Close()
	n.wg.Wait()
	return nil
}

// Send implements dkg.Runtime for the default session: frame, MAC and
// transmit. Connection failures drop the message (protocol
// retransmission recovers).
func (n *Node) Send(to msg.NodeID, body msg.Body) { n.sendSession(0, to, body) }

func (n *Node) sendSession(sid msg.SessionID, to msg.NodeID, body msg.Body) {
	if to == n.cfg.Self {
		// Self-delivery goes straight onto the event loop.
		n.observe(sid, n.cfg.Self, body)
		n.enqueue(event{kind: 1, session: sid, from: n.cfg.Self, body: body})
		return
	}
	if n.cfg.Coalesce {
		n.sendCoalesced(sid, to, body)
		return
	}
	bufp := framePool.Get().(*[]byte)
	frame, err := appendFrame((*bufp)[:0], n.cfg.Secret, sid, n.cfg.Self, to, body)
	if err != nil {
		framePool.Put(bufp)
		return
	}
	n.wire.addEnvelope(body.MsgType(), len(frame)-4-frameOverhead)
	n.wire.addFrame(sid, len(frame), false)
	conn, err := n.conn(to)
	if err != nil {
		putFrameBuf(bufp, frame)
		return
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frame); err != nil {
		n.dropConn(to, conn)
	}
	// The kernel has copied the frame (or the write failed); either
	// way the buffer is ours again.
	putFrameBuf(bufp, frame)
}

// SetTimer implements dkg.Runtime for the default session.
func (n *Node) SetTimer(id uint64, delay int64) { n.setSessionTimer(0, id, delay) }

func (n *Node) setSessionTimer(sid msg.SessionID, id uint64, delay int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	key := timerKey{session: sid, id: id}
	if tm, ok := n.timers[key]; ok {
		tm.Stop()
	}
	d := time.Duration(delay) * n.cfg.TimerUnit
	n.timers[key] = time.AfterFunc(d, func() {
		n.enqueue(event{kind: 2, session: sid, timerID: id})
	})
}

// StopTimer implements dkg.Runtime for the default session.
func (n *Node) StopTimer(id uint64) { n.stopSessionTimer(0, id) }

func (n *Node) stopSessionTimer(sid msg.SessionID, id uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := timerKey{session: sid, id: id}
	if tm, ok := n.timers[key]; ok {
		tm.Stop()
		delete(n.timers, key)
	}
}

// SignalRecover injects the operator recover event (post-reboot). It
// is fanned out to the default handler and every live session.
func (n *Node) SignalRecover() {
	n.enqueue(event{kind: 3})
}

// --- session multiplexing --------------------------------------------

// SessionPort is a session-scoped runtime surface: it implements
// dkg.Runtime (Send, SetTimer, StopTimer) with every send tagged with
// the session identifier and every timer namespaced to the session.
type SessionPort struct {
	node *Node
	sid  msg.SessionID
}

// Session returns the port's session identifier.
func (p *SessionPort) Session() msg.SessionID { return p.sid }

// Send implements dkg.Runtime.
func (p *SessionPort) Send(to msg.NodeID, body msg.Body) { p.node.sendSession(p.sid, to, body) }

// SetTimer implements dkg.Runtime.
func (p *SessionPort) SetTimer(id uint64, delay int64) { p.node.setSessionTimer(p.sid, id, delay) }

// StopTimer implements dkg.Runtime.
func (p *SessionPort) StopTimer(id uint64) { p.node.stopSessionTimer(p.sid, id) }

// RegisterSession installs a handler for one protocol instance and
// returns its runtime port. Re-registering a live or retired session
// fails: session identifiers are single-use by design (a completed
// instance must never be resurrected by replayed traffic).
func (n *Node) RegisterSession(sid msg.SessionID, h Handler) (*SessionPort, error) {
	if h == nil {
		return nil, fmt.Errorf("%w: nil session handler", ErrBadConfig)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if n.retired[sid] {
		return nil, fmt.Errorf("%w: %v", ErrSessionRetired, sid)
	}
	if _, dup := n.sessions[sid]; dup {
		return nil, fmt.Errorf("%w: %v", ErrSessionExists, sid)
	}
	n.sessions[sid] = h
	// The messages held for the session (early.go) are queued while n.mu
	// still hides it from the router, after the observer has had its look
	// ahead at them: at the head of the session's lane, which nothing else
	// can have reached yet, or of the event queue. Only a message the
	// event loop had already taken off that queue when another goroutine
	// registered the session can run before them.
	early := n.releaseEarlyLocked(sid)
	if n.cfg.Observer != nil {
		for _, ev := range early {
			n.cfg.Observer(sid, ev.from, ev.body)
		}
	}
	if n.cfg.ShardSessions && sid != 0 {
		l := newLane()
		l.queue = early
		n.lanes[sid] = l
		n.wg.Add(1)
		go n.runLane(l)
	} else if len(early) > 0 {
		n.qmu.Lock()
		n.queue = append(early, n.queue...)
		n.qmu.Unlock()
		n.qcond.Signal()
	}
	return &SessionPort{node: n, sid: sid}, nil
}

// RetireSession removes a session's handler and cancels its timers.
// Later frames for the session are dropped by the router and counted
// as stale.
func (n *Node) RetireSession(sid msg.SessionID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, live := n.sessions[sid]; !live {
		return
	}
	delete(n.sessions, sid)
	n.retired[sid] = true
	if l := n.lanes[sid]; l != nil {
		// Mark-and-signal only: the retire call may be running on this
		// very lane (a completing session retiring itself through the
		// engine), so the goroutine is joined by Close, not here.
		l.stop()
		delete(n.lanes, sid)
	}
	for key, tm := range n.timers {
		if key.session == sid {
			tm.Stop()
			delete(n.timers, key)
		}
	}
}

// DemuxStats returns a snapshot of the router's rejection counters.
func (n *Node) DemuxStats() DemuxStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.demux
}

// handlerFor resolves the handler for a session (nil = none).
func (n *Node) handlerFor(sid msg.SessionID) Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handlerLocked(sid)
}

func (n *Node) handlerLocked(sid msg.SessionID) Handler {
	if h, ok := n.sessions[sid]; ok {
		return h
	}
	if sid == 0 && n.cfg.Handler != nil {
		return n.cfg.Handler
	}
	return nil
}

// route decides, in one critical section, what becomes of a session's
// message or timer event on the goroutine asking: on is the lane that
// goroutine drains, nil for the event loop. An event of a session that
// has a lane reaches the handler on that lane and nowhere else — a
// message that entered the main queue just before its session registered
// is passed on to the lane here, behind what the registration released —
// or two goroutines could run one session's state machine at once. A
// message without a handler is accounted for: counted as stale if its
// session was retired, as unknown if it is session 0, and otherwise held
// for a registration that may be on its way (early.go). Timer fires
// racing a retirement are not counted.
func (n *Node) route(ev event, on *lane) Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.lanes[ev.session]; l != nil && l != on {
		l.enqueue(ev)
		return nil
	}
	h := n.handlerLocked(ev.session)
	if h == nil && ev.kind == 1 {
		switch {
		case n.retired[ev.session]:
			n.demux.StaleSession++
		case ev.session == 0:
			n.demux.UnknownSession++
		default:
			n.holdEarlyLocked(ev)
		}
	}
	return h
}

// --- internals -------------------------------------------------------

func (n *Node) eventLoop() {
	defer n.wg.Done()
	for {
		n.qmu.Lock()
		for len(n.queue) == 0 {
			select {
			case <-n.done:
				n.qmu.Unlock()
				return
			default:
			}
			n.qcond.Wait()
		}
		ev := n.queue[0]
		n.queue = n.queue[1:]
		n.qmu.Unlock()
		select {
		case <-n.done:
			return
		default:
		}
		switch ev.kind {
		case 1, 2:
			n.dispatchEvent(ev, nil)
		case 3:
			// The whole process recovered: signal the default handler
			// and every live session, in ascending session order.
			// Sharded sessions receive the signal on their lanes.
			n.mu.Lock()
			var inline []Handler
			if n.cfg.Handler != nil {
				inline = append(inline, n.cfg.Handler)
			}
			sids := make([]msg.SessionID, 0, len(n.sessions))
			for sid := range n.sessions {
				sids = append(sids, sid)
			}
			sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
			lanes := make([]*lane, len(sids))
			for i, sid := range sids {
				if l := n.lanes[sid]; l != nil {
					lanes[i] = l
				} else {
					inline = append(inline, n.sessions[sid])
				}
			}
			n.mu.Unlock()
			for i, l := range lanes {
				if l != nil {
					l.enqueue(event{kind: 3, session: sids[i]})
				}
			}
			for _, h := range inline {
				h.HandleRecover()
			}
		case 4:
			ev.op()
		}
	}
}

// dispatchEvent delivers one message, timer or per-session recover
// event to its handler. It runs on the main event loop for unsharded
// sessions and on the session's lane goroutine otherwise — exactly one
// goroutine per session either way.
func (n *Node) dispatchEvent(ev event, on *lane) {
	h := n.route(ev, on)
	if h == nil {
		return
	}
	switch ev.kind {
	case 1:
		h.HandleMessage(ev.from, ev.body)
	case 2:
		h.HandleTimer(ev.timerID)
	case 3:
		h.HandleRecover()
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
				continue
			}
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	// A burst of frames costs one read, not two reads per frame; a
	// batch frame at the coalescing watermark fits the buffer whole.
	br := bufio.NewReaderSize(conn, coalesceBytes)
	for {
		select {
		case <-n.done:
			return
		default:
		}
		sid, from, bodies, size, err := n.readFrame(br)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				n.mu.Lock()
				n.demux.BadFrame++
				n.mu.Unlock()
			}
			return
		}
		// Speculation hook: read loops run one-per-connection, so the
		// observer (a pool submit) overlaps verification with the
		// event loop's dispatch of earlier traffic.
		for _, body := range bodies {
			n.observe(sid, from, body)
			n.enqueue(event{kind: 1, session: sid, from: from, body: body, wire: size / len(bodies)})
		}
	}
}

// conn returns (dialing if needed) the outgoing connection to a peer.
func (n *Node) conn(to msg.NodeID) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	var addr string
	for _, p := range n.cfg.Peers {
		if p.ID == to {
			addr = p.Addr
			break
		}
	}
	n.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("%w: unknown peer %d", ErrBadConfig, to)
	}
	c, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := n.conns[to]; ok {
		c.Close()
		return existing, nil
	}
	n.conns[to] = c
	return c, nil
}

func (n *Node) dropConn(to msg.NodeID, c net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur, ok := n.conns[to]; ok && cur == c {
		delete(n.conns, to)
	}
	c.Close()
}

// Frame layout: u32 length ‖ u8 type ‖ u64 session ‖ u64 from ‖
// u64 to ‖ payload ‖ 32-byte HMAC-SHA256 over (type ‖ session ‖ from ‖
// to ‖ payload). The session identifier is inside the MAC, so a frame
// captured in one session cannot be replayed into another by anyone
// who does not hold the link secret.
const frameOverhead = 1 + 8 + 8 + 8 + sha256.Size

// framePool recycles the per-frame scratch buffers of the encode
// (sendSession) and decode (readFrame) paths. Safe on the decode side
// because every registered decoder copies what it keeps (msg.Reader's
// Blob/Big copy; commitment unmarshalling re-blobs) — a decoded body
// never aliases the frame buffer. Buffers above maxPooledFrame are
// never retained: the frame length field is attacker-controlled (read
// before the MAC check, up to 64 MB), and a pool must not let a
// hostile peer pin giant buffers past its connection's lifetime.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledFrame caps the capacity of buffers returned to framePool;
// larger ones are left for the garbage collector.
const maxPooledFrame = 64 << 10

// putFrameBuf returns a scratch buffer to the pool unless the frame
// outgrew the retention cap, in which case the original (small)
// pooled array is returned instead of the oversized replacement.
func putFrameBuf(bufp *[]byte, used []byte) {
	if cap(used) <= maxPooledFrame {
		*bufp = used[:0]
	}
	framePool.Put(bufp)
}

// SealFrame builds a length-prefixed, MAC-authenticated frame. It is
// the pure sending half of the wire format (exposed for tests, fuzz
// seeding and tooling).
func SealFrame(secret []byte, sid msg.SessionID, from, to msg.NodeID, body msg.Body) ([]byte, error) {
	return appendFrame(nil, secret, sid, from, to, body)
}

// appendFrame appends the sealed frame to buf (which may be a recycled
// scratch buffer) and returns the extended slice.
func appendFrame(buf, secret []byte, sid msg.SessionID, from, to msg.NodeID, body msg.Body) ([]byte, error) {
	payload, err := body.MarshalBinary()
	if err != nil {
		return nil, err
	}
	innerLen := frameOverhead + len(payload)
	out := append(buf, 0, 0, 0, 0) // length prefix, patched below
	out = append(out, byte(body.MsgType()))
	out = binary.BigEndian.AppendUint64(out, uint64(sid))
	out = binary.BigEndian.AppendUint64(out, uint64(from))
	out = binary.BigEndian.AppendUint64(out, uint64(to))
	out = append(out, payload...)
	mac := hmac.New(sha256.New, secret)
	mac.Write(out[len(buf)+4:])
	out = mac.Sum(out)
	binary.BigEndian.PutUint32(out[len(buf):], uint32(innerLen))
	return out, nil
}

// DecodeFrame authenticates and decodes a frame's inner bytes (the
// part after the u32 length prefix): verify the MAC, reject frames not
// addressed to self, and decode the payload through the codec. It is
// pure — exposed for fuzzing the full untrusted-bytes path the read
// loop runs on every inbound frame. Decoded bodies must never alias
// inner: the read loop recycles the buffer immediately after this
// returns, so codec decoders are required to copy what they keep
// (msg.Reader's accessors all do).
func DecodeFrame(codec *msg.Codec, secret []byte, self msg.NodeID, inner []byte) (msg.SessionID, msg.NodeID, msg.Body, error) {
	if len(inner) < frameOverhead {
		return 0, 0, nil, ErrBadFrame
	}
	body := inner[:len(inner)-sha256.Size]
	tag := inner[len(inner)-sha256.Size:]
	mac := hmac.New(sha256.New, secret)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), tag) {
		return 0, 0, nil, ErrBadFrame
	}
	typ := msg.Type(body[0])
	sid := msg.SessionID(binary.BigEndian.Uint64(body[1:9]))
	from := msg.NodeID(binary.BigEndian.Uint64(body[9:17]))
	to := msg.NodeID(binary.BigEndian.Uint64(body[17:25]))
	if to != self {
		return 0, 0, nil, ErrBadFrame
	}
	decoded, err := codec.Decode(typ, body[25:])
	if err != nil {
		return 0, 0, nil, err
	}
	return sid, from, decoded, nil
}

// readFrame reads, authenticates and decodes one frame; size is its
// length on the wire.
func (n *Node) readFrame(r *bufio.Reader) (sid msg.SessionID, from msg.NodeID, bodies []msg.Body, size int, err error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	length := binary.BigEndian.Uint32(hdr)
	r.Discard(4) //nolint:errcheck // the 4 bytes are buffered
	if length < frameOverhead || length > 64<<20 {
		return 0, 0, nil, 0, ErrBadFrame
	}
	// Pooled read buffer: the codec's decoders copy everything they
	// retain, so the buffer is reusable the moment decoding returns.
	bufp := framePool.Get().(*[]byte)
	var inner []byte
	if cap(*bufp) >= int(length) {
		inner = (*bufp)[:length]
	} else {
		inner = make([]byte, length)
	}
	if _, err := io.ReadFull(r, inner); err != nil {
		putFrameBuf(bufp, inner)
		return 0, 0, nil, 0, err
	}
	sid, from, bodies, err = DecodeFrameMulti(n.cfg.Codec, n.cfg.Secret, n.cfg.Self, inner)
	putFrameBuf(bufp, inner)
	return sid, from, bodies, 4 + int(length), err
}
