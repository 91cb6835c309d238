// Package simnet is a deterministic simulator of the paper's network
// model (§2.1–2.2): an asynchronous message-passing network in which
// the adversary schedules delivery, non-Byzantine nodes may crash and
// recover (losing in-flight messages but keeping state, per the
// Backes–Cachin crash-recovery model), and links are authenticated
// FIFO channels (the TLS links of §2.3).
//
// The simulator drives protocol state machines (vss.Node, dkg.Node, …)
// through a virtual-time event queue. All scheduling randomness comes
// from a single seed, so every run — including adversarial ones — is
// exactly reproducible. It also keeps the books the complexity
// benches need: per-message-type counts, encoded byte volume, crash
// and drop counts, and the causal depth of the longest message chain
// (the protocol's latency degree).
//
// Nodes are session-multiplexed, mirroring the TCP runtime: every
// message and timer is tagged with a msg.SessionID, per-session
// handlers are installed with RegisterSession, and a demux router
// rejects traffic for unknown or retired sessions (counted in Stats)
// before any protocol code runs. Sessions share the per-link FIFO
// horizons, the way concurrent protocol instances share one TCP
// connection per peer in deployment.
package simnet

import (
	"container/heap"
	"fmt"
	"sort"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
)

// Handler is a protocol node: a deterministic state machine consuming
// network and timer messages (§7 of the paper). Implementations must
// do all their I/O through the Env they were constructed with.
type Handler interface {
	// HandleMessage delivers a network message from another node.
	HandleMessage(from msg.NodeID, body msg.Body)
	// HandleTimer delivers an expired timer previously set via Env.
	HandleTimer(id uint64)
	// HandleRecover delivers the operator's recover signal after a
	// crash (the paper's (in, recover) message).
	HandleRecover()
}

// DropReason classifies an adversarial drop for the Stats books, so
// scenario reports can distinguish "the adversary censored this" from
// "a modelled WAN fault ate it".
type DropReason uint8

// Drop reasons.
const (
	// DropFilter is a plain adversarial drop (the default).
	DropFilter DropReason = iota
	// DropPartition marks a message eaten by a lossy network
	// partition model.
	DropPartition
	// DropLoss marks a message eaten by a per-link loss model.
	DropLoss
)

// Verdict is an adversarial scheduling decision for one message.
type Verdict struct {
	// ExtraDelay postpones delivery by the given virtual time.
	ExtraDelay int64
	// Drop discards the message. The hybrid model (§2.1) only permits
	// losing messages to/from *crashed* nodes; between live nodes the
	// weakly synchronous links eventually deliver. A filter that drops
	// live-link traffic is therefore modelling a *stronger* adversary
	// than the protocol's resilience claim covers (lossy WAN faults,
	// gray partitions, the sub-resilience negative experiments) and
	// must say so explicitly by also setting AllowDrop — a Drop
	// without AllowDrop panics, so a scenario that silently exceeds
	// the model fails loudly instead of silently weakening the claim.
	Drop bool
	// AllowDrop acknowledges that this drop steps outside the hybrid
	// model's guarantees. Mandatory whenever Drop is set.
	AllowDrop bool
	// Reason routes the drop to the right Stats counter
	// (DroppedFilter / DroppedPartition / DroppedLoss).
	Reason DropReason
}

// FilterFunc lets a test play the adversary: it sees every message at
// send time and can delay or drop it.
type FilterFunc func(from, to msg.NodeID, body msg.Body) Verdict

// SessionFilterFunc is the session-aware adversary hook: it
// additionally sees which protocol instance a message belongs to, so
// tests can schedule faults in one session relative to another
// (crash-during-leader-change interleavings across sessions).
type SessionFilterFunc func(session msg.SessionID, from, to msg.NodeID, body msg.Body) Verdict

// Options configures a Network.
type Options struct {
	// Seed drives all scheduling randomness.
	Seed uint64
	// MinDelay/MaxDelay bound the random per-message delivery delay
	// in virtual time units. Defaults: 1 and 100.
	MinDelay, MaxDelay int64
	// DisableFIFO turns off per-link in-order delivery. The default
	// (false) delivers in order per link, matching the TLS/TCP
	// channel semantics of §2.3; disabling it models a maximally
	// reordering adversary.
	DisableFIFO bool
	// Account enables byte accounting (encodes every message).
	// Defaults to true; disable for very large sweeps.
	DisableAccounting bool
	// Coalesce switches the frame-accounting model to the transport's
	// batch frames: consecutive same-(src,dst,session) envelopes inside
	// the coalescing window are billed as one frame (fixed header+MAC
	// paid once, a 5-byte sub-header per envelope) instead of one frame
	// each. Simulated delivery is unchanged — only the Frames/FrameBytes
	// books move, mirroring what transport.Config.Coalesce does to real
	// TCP traffic.
	Coalesce bool
	// CoalesceWindow is the virtual-time width of an open batch frame
	// (defaults to 10, comfortably under MinDelay-spaced rounds).
	CoalesceWindow int64
	// Filter, when set, is consulted for every message.
	Filter FilterFunc
	// SessionFilter, when set, is additionally consulted for every
	// message with its session identifier.
	SessionFilter SessionFilterFunc
	// EventHook, when set, receives one TraceEvent for every
	// scheduling decision the simulator makes: message deliveries and
	// drops (with their reason), timer fires, operator ops, crashes
	// and recoveries. The stream is a pure function of (seed, inputs),
	// so hashing it yields a replay fingerprint: two runs of the same
	// scenario are event-for-event identical iff their hashes match.
	// The hook runs on the simulation goroutine and must not touch
	// protocol or network state.
	EventHook func(TraceEvent)
	// Observer, when set, sees every scheduled (non-dropped) message
	// whose destination holds a registered, un-retired handler for its
	// session, at send time — before its virtual-time delivery (the
	// same rule as the TCP transport's observer). The harness
	// installs the verification pipeline's speculator here: workers
	// verify a message's crypto while it "travels", mirroring the TCP
	// runtime where read loops feed the speculator ahead of the event
	// loop. The observer must not touch protocol state; it runs on the
	// simulation goroutine and anything it schedules elsewhere must be
	// free of protocol side effects (pure cache warming), which is what
	// keeps simulated runs deterministic.
	Observer func(to msg.NodeID, sid msg.SessionID, from msg.NodeID, body msg.Body)
}

// Stats aggregates what the complexity experiments measure.
type Stats struct {
	// MsgCount and MsgBytes are keyed by message type.
	MsgCount map[msg.Type]int
	MsgBytes map[msg.Type]int64
	// TotalMsgs and TotalBytes are the headline complexity numbers.
	TotalMsgs  int
	TotalBytes int64
	// Frames and FrameBytes model the authenticated wire: every
	// non-loopback message is billed with its frame overhead (v1: one
	// frame per envelope; with Coalesce: batch frames per the window).
	// FrameBytes is the run's bytes-on-wire headline.
	Frames     int
	FrameBytes int64
	// SessionFrames/SessionBytes break the wire books down per
	// protocol session (the counters `dkgnode serve` reports).
	SessionFrames map[msg.SessionID]int
	SessionBytes  map[msg.SessionID]int64
	// DroppedCrash counts messages lost because the receiver was
	// crashed at delivery time; DroppedFilter counts plain adversarial
	// drops. DroppedPartition and DroppedLoss count drops the fault
	// models attribute to lossy partitions and per-link loss — kept
	// distinct from DroppedFilter because they measure modelled WAN
	// weather, not adversarial censorship.
	DroppedCrash     int
	DroppedFilter    int
	DroppedPartition int
	DroppedLoss      int
	// DroppedUnknownSession counts messages addressed to a session the
	// receiver never registered; DroppedStaleSession counts messages
	// for sessions the receiver has already retired (completed-session
	// replay). Both are rejected by the demultiplexing router before
	// any protocol code runs.
	DroppedUnknownSession int
	DroppedStaleSession   int
	// Crashes and Recoveries count operator events.
	Crashes    int
	Recoveries int
	// MaxDepth is the longest causal message chain observed — the
	// latency degree of the run.
	MaxDepth int
	// Events is the number of events processed.
	Events int
}

// TraceKind classifies the entries of the EventHook stream.
type TraceKind uint8

// Trace event kinds.
const (
	TraceDeliver       TraceKind = iota + 1 // message handed to a handler
	TraceTimer                              // timer fired into a handler
	TraceOp                                 // scheduled operator op ran
	TraceDropCrash                          // receiver crashed at delivery
	TraceDropFilter                         // adversarial drop at send time
	TraceDropPartition                      // lossy-partition drop at send time
	TraceDropLoss                           // link-loss drop at send time
	TraceDropUnknown                        // unknown-session router rejection
	TraceDropStale                          // retired-session router rejection
	TraceCrash                              // node crashed
	TraceRecover                            // node recovered
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceDeliver:
		return "deliver"
	case TraceTimer:
		return "timer"
	case TraceOp:
		return "op"
	case TraceDropCrash:
		return "drop-crash"
	case TraceDropFilter:
		return "drop-filter"
	case TraceDropPartition:
		return "drop-partition"
	case TraceDropLoss:
		return "drop-loss"
	case TraceDropUnknown:
		return "drop-unknown"
	case TraceDropStale:
		return "drop-stale"
	case TraceCrash:
		return "crash"
	case TraceRecover:
		return "recover"
	}
	return "?"
}

// TraceEvent is one entry of the deterministic scheduling trace
// (Options.EventHook). Together the entries fully determine a run:
// every protocol-visible input (delivery, timer, recover signal) and
// every suppression of one (drop) appears exactly once, in dispatch
// order, stamped with virtual time.
type TraceEvent struct {
	At       int64
	Kind     TraceKind
	Session  msg.SessionID
	From, To msg.NodeID
	Type     msg.Type
	TimerID  uint64
}

type eventKind uint8

const (
	evMessage eventKind = iota + 1
	evTimer
	evOp
)

type event struct {
	at   int64
	seq  uint64
	kind eventKind

	// session routes evMessage and evTimer events to one protocol
	// instance on the destination node (0 = legacy default session).
	session msg.SessionID

	// evMessage fields.
	from, to msg.NodeID
	body     msg.Body
	depth    int

	// evTimer fields.
	node      msg.NodeID
	timerID   uint64
	cancelled bool

	// evOp fields.
	op func()
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// timerKey namespaces timers per session so concurrent protocol
// instances on one node can reuse the same local timer identifiers.
type timerKey struct {
	session msg.SessionID
	id      uint64
}

type nodeSlot struct {
	id      msg.NodeID
	handler Handler // legacy default-session handler (session 0)
	// sessions holds the per-instance handlers of the demux router;
	// retired remembers sessions that completed and were deregistered,
	// so replayed traffic is counted as stale rather than unknown.
	sessions map[msg.SessionID]Handler
	retired  map[msg.SessionID]bool
	crashed  bool
	depth    int
	timers   map[timerKey]*event
}

// handlerFor resolves the protocol instance a frame addresses.
func (s *nodeSlot) handlerFor(sid msg.SessionID) Handler {
	if h, ok := s.sessions[sid]; ok {
		return h
	}
	if sid == 0 {
		return s.handler
	}
	return nil
}

// Frame-model constants, mirroring the transport's encodings (see
// internal/transport framing): a v1 frame spends 60 bytes beyond
// msg.WireSize (u32 length, session/from/to u64s, 32-byte MAC); a v2
// batch frame pays 63 fixed bytes (those plus the 0x80 marker and a
// u16 envelope count) and 4 bytes of sub-header per packed envelope.
const (
	frameV1Overhead   = 60
	frameBatchFixed   = 63
	frameBatchPerEnv  = 4
	defCoalesceWindow = 10
)

// frameKey identifies an open batch-frame window.
type frameKey struct {
	from, to msg.NodeID
	sid      msg.SessionID
}

// Network is the simulated asynchronous network.
type Network struct {
	opts  Options
	rng   *randutil.Reader
	queue eventQueue
	seq   uint64
	now   int64
	nodes map[msg.NodeID]*nodeSlot
	stats Stats
	// lastLink tracks per-link delivery horizons for FIFO ordering.
	lastLink map[[2]msg.NodeID]int64
	// frameOpen holds, per (src,dst,session), the virtual time until
	// which the current batch frame accepts further envelopes.
	frameOpen map[frameKey]int64
	// currentDepth is the causal depth of the event being dispatched.
	currentDepth int
}

// New creates a Network with the given options.
func New(opts Options) *Network {
	if opts.MinDelay <= 0 {
		opts.MinDelay = 1
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 100
	}
	if opts.MaxDelay < opts.MinDelay {
		opts.MaxDelay = opts.MinDelay
	}
	if opts.CoalesceWindow <= 0 {
		opts.CoalesceWindow = defCoalesceWindow
	}
	return &Network{
		opts:  opts,
		rng:   randutil.NewReader(opts.Seed),
		nodes: make(map[msg.NodeID]*nodeSlot),
		stats: Stats{
			MsgCount:      make(map[msg.Type]int),
			MsgBytes:      make(map[msg.Type]int64),
			SessionFrames: make(map[msg.SessionID]int),
			SessionBytes:  make(map[msg.SessionID]int64),
		},
		lastLink:  make(map[[2]msg.NodeID]int64),
		frameOpen: make(map[frameKey]int64),
	}
}

// Register adds a node to the network with a default-session handler.
// It must be called before Run.
func (n *Network) Register(id msg.NodeID, h Handler) {
	n.slot(id).handler = h
}

// RegisterSession installs the handler for one protocol instance on a
// node. The slot is created on first use, so a node may exist purely
// as a bundle of sessions. Re-registering a live or retired session
// fails, matching the TCP transport: session identifiers are
// single-use, and a completed instance must never be resurrected by
// replayed traffic.
func (n *Network) RegisterSession(id msg.NodeID, sid msg.SessionID, h Handler) error {
	slot := n.slot(id)
	if slot.retired[sid] {
		return fmt.Errorf("simnet: node %d session %v already retired", id, sid)
	}
	if _, dup := slot.sessions[sid]; dup {
		return fmt.Errorf("simnet: node %d session %v already registered", id, sid)
	}
	slot.sessions[sid] = h
	return nil
}

// RetireSession removes a session's handler and cancels its pending
// timers. Subsequent traffic for the session is dropped by the router
// and counted as stale — the cheap rejection path for
// completed-session replay.
func (n *Network) RetireSession(id msg.NodeID, sid msg.SessionID) {
	slot, ok := n.nodes[id]
	if !ok {
		return
	}
	if _, live := slot.sessions[sid]; !live {
		return
	}
	delete(slot.sessions, sid)
	slot.retired[sid] = true
	for key, ev := range slot.timers {
		if key.session == sid {
			ev.cancelled = true
			delete(slot.timers, key)
		}
	}
}

// SessionRetired reports whether the node has retired the session.
func (n *Network) SessionRetired(id msg.NodeID, sid msg.SessionID) bool {
	slot, ok := n.nodes[id]
	return ok && slot.retired[sid]
}

func (n *Network) slot(id msg.NodeID) *nodeSlot {
	slot, ok := n.nodes[id]
	if !ok {
		slot = &nodeSlot{
			id:       id,
			sessions: make(map[msg.SessionID]Handler),
			retired:  make(map[msg.SessionID]bool),
			timers:   make(map[timerKey]*event),
		}
		n.nodes[id] = slot
	}
	return slot
}

// Env returns the per-node environment protocol constructors use for
// sending and timers, bound to the legacy default session.
func (n *Network) Env(id msg.NodeID) *Env { return &Env{net: n, id: id} }

// SessionEnv returns an environment bound to one protocol instance:
// sends are tagged with the session and timers live in its namespace.
func (n *Network) SessionEnv(id msg.NodeID, sid msg.SessionID) *Env {
	return &Env{net: n, id: id, session: sid}
}

// Now returns the current virtual time.
func (n *Network) Now() int64 { return n.now }

// Stats returns a snapshot of the accounting counters.
func (n *Network) Stats() Stats {
	out := n.stats
	out.MsgCount = make(map[msg.Type]int, len(n.stats.MsgCount))
	for k, v := range n.stats.MsgCount {
		out.MsgCount[k] = v
	}
	out.MsgBytes = make(map[msg.Type]int64, len(n.stats.MsgBytes))
	for k, v := range n.stats.MsgBytes {
		out.MsgBytes[k] = v
	}
	out.SessionFrames = make(map[msg.SessionID]int, len(n.stats.SessionFrames))
	for k, v := range n.stats.SessionFrames {
		out.SessionFrames[k] = v
	}
	out.SessionBytes = make(map[msg.SessionID]int64, len(n.stats.SessionBytes))
	for k, v := range n.stats.SessionBytes {
		out.SessionBytes[k] = v
	}
	return out
}

// Crashed reports whether a node is currently crashed.
func (n *Network) Crashed(id msg.NodeID) bool {
	slot, ok := n.nodes[id]
	return ok && slot.crashed
}

// Crash marks a node crashed immediately: it stops receiving messages
// and timer fires until Recover. Its protocol state is preserved
// (crash-recovery model: state survives on stable storage; in-flight
// messages are lost). A node with nothing registered yet gets its slot
// here, so it stays crashed once its sessions are registered.
func (n *Network) Crash(id msg.NodeID) {
	slot := n.slot(id)
	if slot.crashed {
		return
	}
	slot.crashed = true
	n.stats.Crashes++
	n.hook(TraceEvent{At: n.now, Kind: TraceCrash, To: id})
}

// Recover un-crashes a node and delivers the operator recover signal,
// which triggers the protocol's help/retransmission machinery. Every
// protocol instance hosted on the node receives the signal (the whole
// process rebooted), in ascending session order for determinism.
func (n *Network) Recover(id msg.NodeID) {
	slot, ok := n.nodes[id]
	if !ok || !slot.crashed {
		return
	}
	slot.crashed = false
	n.stats.Recoveries++
	n.hook(TraceEvent{At: n.now, Kind: TraceRecover, To: id})
	n.currentDepth = slot.depth
	// Snapshot handlers before invoking any of them: a HandleRecover
	// may retire a sibling session, and the fan-out must not index a
	// mutated map (same discipline as the transport's event loop).
	handlers := make([]Handler, 0, len(slot.sessions)+1)
	if slot.handler != nil {
		handlers = append(handlers, slot.handler)
	}
	sids := make([]msg.SessionID, 0, len(slot.sessions))
	for sid := range slot.sessions {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	for _, sid := range sids {
		handlers = append(handlers, slot.sessions[sid])
	}
	for _, h := range handlers {
		h.HandleRecover()
	}
}

// Schedule runs fn at now+delay virtual time (operator actions such as
// crashes, recoveries and clock ticks).
func (n *Network) Schedule(delay int64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	n.push(&event{at: n.now + delay, kind: evOp, op: fn})
}

// send enqueues a message for delivery; called via Env.
func (n *Network) send(from, to msg.NodeID, sid msg.SessionID, body msg.Body) {
	if slot, ok := n.nodes[from]; ok && slot.crashed {
		// A crashed node cannot send; protocol code should not be
		// running on a crashed node at all, but guard anyway.
		return
	}
	verdict := Verdict{}
	if n.opts.Filter != nil {
		verdict = n.opts.Filter(from, to, body)
	}
	if n.opts.SessionFilter != nil && !verdict.Drop {
		sv := n.opts.SessionFilter(sid, from, to, body)
		verdict.Drop = sv.Drop
		verdict.AllowDrop = sv.AllowDrop
		verdict.Reason = sv.Reason
		verdict.ExtraDelay += sv.ExtraDelay
	}
	if verdict.Drop {
		if !verdict.AllowDrop {
			// The hybrid model only loses messages to/from crashed
			// nodes. A drop between live nodes weakens the resilience
			// claim the tests are supposed to be checking, so it must
			// be acknowledged explicitly — fail loudly otherwise.
			panic(fmt.Sprintf(
				"simnet: filter dropped %v %d→%d without Verdict.AllowDrop: "+
					"arbitrary drops exceed the hybrid model (crash-only loss); "+
					"set AllowDrop to model a stronger adversary deliberately",
				body.MsgType(), from, to))
		}
		kind := TraceDropFilter
		switch verdict.Reason {
		case DropPartition:
			n.stats.DroppedPartition++
			kind = TraceDropPartition
		case DropLoss:
			n.stats.DroppedLoss++
			kind = TraceDropLoss
		default:
			n.stats.DroppedFilter++
		}
		n.hook(TraceEvent{At: n.now, Kind: kind, Session: sid, From: from, To: to, Type: body.MsgType()})
		return
	}
	if slot, ok := n.nodes[to]; ok && n.opts.Observer != nil && slot.handlerFor(sid) != nil {
		n.opts.Observer(to, sid, from, body)
	}
	n.stats.MsgCount[body.MsgType()]++
	n.stats.TotalMsgs++
	if !n.opts.DisableAccounting {
		sz := int64(msg.WireSize(body))
		n.stats.MsgBytes[body.MsgType()] += sz
		n.stats.TotalBytes += sz
		n.accountFrame(from, to, sid, sz)
	}
	delay := n.opts.MinDelay
	if n.opts.MaxDelay > n.opts.MinDelay {
		delay += n.rng.Int64N(n.opts.MaxDelay - n.opts.MinDelay + 1)
	}
	delay += verdict.ExtraDelay
	at := n.now + delay
	if !n.opts.DisableFIFO {
		// FIFO horizons are per link, not per session: concurrent
		// sessions share one authenticated channel per node pair, the
		// way the deployment runtime shares one TCP connection.
		key := [2]msg.NodeID{from, to}
		if last := n.lastLink[key]; at <= last {
			at = last + 1
		}
		n.lastLink[key] = at
	}
	n.push(&event{
		at:      at,
		kind:    evMessage,
		session: sid,
		from:    from,
		to:      to,
		body:    body,
		depth:   n.currentDepth + 1,
	})
}

// accountFrame bills one envelope's share of the authenticated wire.
// Self-sends are loopback — the deployment runtime never frames them —
// so they carry no frame cost. In v1 mode every envelope is its own
// frame; in coalescing mode an envelope joins the link's open batch
// frame when one is still inside its window, paying only the
// sub-header, and otherwise opens a new frame and the window with it.
func (n *Network) accountFrame(from, to msg.NodeID, sid msg.SessionID, sz int64) {
	if from == to {
		return
	}
	var cost int64
	if !n.opts.Coalesce {
		n.stats.Frames++
		n.stats.SessionFrames[sid]++
		cost = frameV1Overhead + sz
	} else {
		key := frameKey{from: from, to: to, sid: sid}
		if expiry, open := n.frameOpen[key]; open && n.now <= expiry {
			cost = frameBatchPerEnv + sz
		} else {
			n.frameOpen[key] = n.now + n.opts.CoalesceWindow
			n.stats.Frames++
			n.stats.SessionFrames[sid]++
			cost = frameBatchFixed + frameBatchPerEnv + sz
		}
	}
	n.stats.FrameBytes += cost
	n.stats.SessionBytes[sid] += cost
}

// setTimer enqueues a timer fire; called via Env.
func (n *Network) setTimer(node msg.NodeID, sid msg.SessionID, id uint64, delay int64) {
	slot, ok := n.nodes[node]
	if !ok {
		return
	}
	key := timerKey{session: sid, id: id}
	if prev, live := slot.timers[key]; live {
		prev.cancelled = true
	}
	if delay < 0 {
		delay = 0
	}
	ev := &event{at: n.now + delay, kind: evTimer, session: sid, node: node, timerID: id}
	slot.timers[key] = ev
	n.push(ev)
}

// stopTimer cancels a pending timer; called via Env.
func (n *Network) stopTimer(node msg.NodeID, sid msg.SessionID, id uint64) {
	slot, ok := n.nodes[node]
	if !ok {
		return
	}
	key := timerKey{session: sid, id: id}
	if ev, live := slot.timers[key]; live {
		ev.cancelled = true
		delete(slot.timers, key)
	}
}

// hook delivers one trace event to the EventHook when installed.
func (n *Network) hook(ev TraceEvent) {
	if n.opts.EventHook != nil {
		n.opts.EventHook(ev)
	}
}

func (n *Network) push(ev *event) {
	ev.seq = n.seq
	n.seq++
	heap.Push(&n.queue, ev)
}

// Step processes a single event. It returns false when the queue is
// empty.
func (n *Network) Step() bool {
	for len(n.queue) > 0 {
		ev := heap.Pop(&n.queue).(*event)
		if ev.kind == evTimer && ev.cancelled {
			continue
		}
		n.now = ev.at
		n.stats.Events++
		switch ev.kind {
		case evMessage:
			n.dispatchMessage(ev)
		case evTimer:
			n.dispatchTimer(ev)
		case evOp:
			n.currentDepth = 0
			n.hook(TraceEvent{At: n.now, Kind: TraceOp})
			ev.op()
		}
		return true
	}
	return false
}

func (n *Network) dispatchMessage(ev *event) {
	slot, ok := n.nodes[ev.to]
	if !ok {
		return
	}
	if slot.crashed {
		n.stats.DroppedCrash++
		n.hook(TraceEvent{At: n.now, Kind: TraceDropCrash, Session: ev.session, From: ev.from, To: ev.to, Type: ev.body.MsgType()})
		return
	}
	h := slot.handlerFor(ev.session)
	if h == nil {
		// The demux router rejects traffic for sessions this node
		// never hosted or has already retired, before any protocol
		// code (or signature verification) runs.
		kind := TraceDropUnknown
		if slot.retired[ev.session] {
			n.stats.DroppedStaleSession++
			kind = TraceDropStale
		} else {
			n.stats.DroppedUnknownSession++
		}
		n.hook(TraceEvent{At: n.now, Kind: kind, Session: ev.session, From: ev.from, To: ev.to, Type: ev.body.MsgType()})
		return
	}
	if ev.depth > slot.depth {
		slot.depth = ev.depth
	}
	if ev.depth > n.stats.MaxDepth {
		n.stats.MaxDepth = ev.depth
	}
	n.currentDepth = slot.depth
	n.hook(TraceEvent{At: n.now, Kind: TraceDeliver, Session: ev.session, From: ev.from, To: ev.to, Type: ev.body.MsgType()})
	h.HandleMessage(ev.from, ev.body)
}

func (n *Network) dispatchTimer(ev *event) {
	slot, ok := n.nodes[ev.node]
	if !ok {
		return
	}
	key := timerKey{session: ev.session, id: ev.timerID}
	if cur, live := slot.timers[key]; live && cur == ev {
		delete(slot.timers, key)
	}
	if slot.crashed {
		return
	}
	h := slot.handlerFor(ev.session)
	if h == nil {
		return
	}
	n.currentDepth = slot.depth
	n.hook(TraceEvent{At: n.now, Kind: TraceTimer, Session: ev.session, To: ev.node, TimerID: ev.timerID})
	h.HandleTimer(ev.timerID)
}

// Run processes events until the queue drains or limit events have
// been handled (0 means no limit). It returns the number of events
// processed.
func (n *Network) Run(limit int) int {
	processed := 0
	for limit == 0 || processed < limit {
		if !n.Step() {
			break
		}
		processed++
	}
	return processed
}

// RunUntil processes events until done() returns true, the queue
// drains, or limit events pass (0 = no limit). It reports whether
// done() was satisfied.
func (n *Network) RunUntil(done func() bool, limit int) bool {
	if done() {
		return true
	}
	processed := 0
	for limit == 0 || processed < limit {
		if !n.Step() {
			return done()
		}
		processed++
		if done() {
			return true
		}
	}
	return done()
}

// Pending returns the number of queued events (cancelled timers
// included until they surface).
func (n *Network) Pending() int { return len(n.queue) }

// Env is the per-node I/O environment handed to protocol
// constructors: it routes sends and timers back into the simulator,
// tagged with the session the environment is bound to.
type Env struct {
	net     *Network
	id      msg.NodeID
	session msg.SessionID
}

// ID returns the owning node's identifier.
func (e *Env) ID() msg.NodeID { return e.id }

// Session returns the protocol instance this environment is bound to.
func (e *Env) Session() msg.SessionID { return e.session }

// Send transmits body to the given node (including self-sends, which
// the paper's "send to each Pj" loops include).
func (e *Env) Send(to msg.NodeID, body msg.Body) { e.net.send(e.id, to, e.session, body) }

// SetTimer (re)arms timer id to fire after delay virtual time units.
func (e *Env) SetTimer(id uint64, delay int64) { e.net.setTimer(e.id, e.session, id, delay) }

// StopTimer cancels timer id if pending.
func (e *Env) StopTimer(id uint64) { e.net.stopTimer(e.id, e.session, id) }

// Now returns the current virtual time.
func (e *Env) Now() int64 { return e.net.now }

// String implements fmt.Stringer.
func (e *Env) String() string {
	if e.session != 0 {
		return fmt.Sprintf("env(node %d, %v)", e.id, e.session)
	}
	return fmt.Sprintf("env(node %d)", e.id)
}
