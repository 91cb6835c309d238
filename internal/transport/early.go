package transport

import (
	"time"

	"hybriddkg/internal/msg"
)

// Early-frame admission. Nodes do not register a session at the same
// instant: an operator's Start reaches them microseconds to
// milliseconds apart, and a node that is ahead deals at once. A message the router finds no handler for, whose
// session is neither retired nor session 0, is therefore held, not
// dropped, until RegisterSession claims it — nothing below the
// protocol's own help messages retransmits a dealer's send, and a
// session that waits for n−t−f dealers cannot shrug off the loss the way
// one that needs t+1 of them could. A message whose session registers
// while it is still waiting on the event queue never comes here: it is
// dispatched as it always was.
//
// Only MAC-valid frames get this far, so only holders of the link
// secret can fill the buffer, and it is bounded three ways in wire
// bytes (a message is charged its share of its frame, length prefix
// included): earlyBytes in total, an eighth of that for any one session
// and a quarter for any one sender, so that neither one busy session nor
// one faulty peer can crowd out the rest. What is held is the decoded
// form, a small multiple of the wire size. A message is held for at most
// earlyExpiry. One that does not fit, or that is never claimed, is
// counted as UnknownSession exactly as a dropped one always was, and as
// EarlyOverflow or EarlyExpired besides.
const (
	earlyBytes  = 16 << 20
	earlyExpiry = 10 * time.Second
)

// earlyMsg is one held message and when it was taken in.
type earlyMsg struct {
	ev event
	at time.Time
	// gone marks a message that was released or counted out but has not
	// reached the head of the arrival queue yet.
	gone bool
}

// earlyBuffer is the node's pre-registration buffer. Node.mu guards it.
type earlyBuffer struct {
	perSession, perSender, total int
	expiry                       time.Duration

	// fifo holds every message in arrival order (expiry is uniform, so
	// the head is always the next to expire); sessions indexes the live
	// ones.
	fifo      []*earlyMsg
	sessions  map[msg.SessionID][]*earlyMsg
	sessBytes map[msg.SessionID]int
	fromBytes map[msg.NodeID]int
	bytes     int
	timer     *time.Timer
}

func newEarlyBuffer() *earlyBuffer {
	e := &earlyBuffer{
		expiry:    earlyExpiry,
		sessions:  make(map[msg.SessionID][]*earlyMsg),
		sessBytes: make(map[msg.SessionID]int),
		fromBytes: make(map[msg.NodeID]int),
	}
	e.setBudget(earlyBytes)
	return e
}

func (e *earlyBuffer) setBudget(total int) {
	e.perSession, e.perSender, e.total = total/8, total/4, total
}

// holdEarlyLocked takes in a message the router found no handler for, or
// counts it out if a budget is full.
func (n *Node) holdEarlyLocked(ev event) {
	e := n.early
	if e.sessBytes[ev.session]+ev.wire > e.perSession || e.fromBytes[ev.from]+ev.wire > e.perSender || e.bytes+ev.wire > e.total {
		n.demux.EarlyOverflow++
		n.demux.UnknownSession++
		return
	}
	m := &earlyMsg{ev: ev, at: time.Now()}
	e.fifo = append(e.fifo, m)
	e.sessions[ev.session] = append(e.sessions[ev.session], m)
	e.charge(ev, +1)
	n.demux.EarlyHeld++
	if e.timer == nil {
		e.timer = time.AfterFunc(e.expiry, n.expireEarly)
	}
}

func (e *earlyBuffer) charge(ev event, sign int) {
	e.sessBytes[ev.session] += sign * ev.wire
	e.fromBytes[ev.from] += sign * ev.wire
	e.bytes += sign * ev.wire
	if e.sessBytes[ev.session] == 0 {
		delete(e.sessBytes, ev.session)
	}
	if e.fromBytes[ev.from] == 0 {
		delete(e.fromBytes, ev.from)
	}
}

// releaseEarlyLocked hands over the messages held for a session that is
// being registered, in arrival order.
func (n *Node) releaseEarlyLocked(sid msg.SessionID) []event {
	e := n.early
	held := e.sessions[sid]
	if len(held) == 0 {
		return nil
	}
	delete(e.sessions, sid)
	evs := make([]event, len(held))
	for i, m := range held {
		evs[i] = m.ev
		e.charge(m.ev, -1)
		m.gone, m.ev = true, event{}
	}
	n.demux.EarlyReleased += len(held)
	if e.bytes == 0 {
		// Nothing is held any more: the arrival queue is all tombstones,
		// and the timer will find it empty.
		e.fifo = nil
	}
	return evs
}

// expireEarly is the buffer's timer: it counts out every message held
// for the full expiry and sleeps until the next one is due.
func (n *Node) expireEarly() {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.early
	e.timer = nil
	if n.closed {
		return
	}
	now := time.Now()
	for len(e.fifo) > 0 {
		m := e.fifo[0]
		if !m.gone {
			if wait := e.expiry - now.Sub(m.at); wait > 0 {
				e.timer = time.AfterFunc(wait, n.expireEarly)
				return
			}
			// The oldest live message overall is the oldest of its session.
			sid := m.ev.session
			if rest := e.sessions[sid][1:]; len(rest) > 0 {
				e.sessions[sid] = rest
			} else {
				delete(e.sessions, sid)
			}
			e.charge(m.ev, -1)
			m.gone, m.ev = true, event{}
			n.demux.EarlyExpired++
			n.demux.UnknownSession++
		}
		e.fifo[0] = nil
		e.fifo = e.fifo[1:]
	}
	e.fifo = nil
}
