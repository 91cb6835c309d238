package transport_test

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/transport"
	"hybriddkg/internal/vss"
)

// sessionSink records which session's handler saw which bodies.
type sessionSink struct {
	ch  chan msg.Body
	rec chan struct{}
}

func newSessionSink() *sessionSink {
	return &sessionSink{ch: make(chan msg.Body, 16), rec: make(chan struct{}, 4)}
}

func (s *sessionSink) HandleMessage(_ msg.NodeID, body msg.Body) { s.ch <- body }
func (s *sessionSink) HandleTimer(uint64)                        {}
func (s *sessionSink) HandleRecover()                            { s.rec <- struct{}{} }

func waitDemux(t *testing.T, node *transport.Node, ok func(transport.DemuxStats) bool) transport.DemuxStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := node.DemuxStats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("demux stats never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionDemux: frames reach the handler of their own session
// only; a frame for a session nobody registers is rejected and counted
// once it has waited out the early-frame expiry, one for a retired
// session at once — neither with the observer getting a look at it —
// and retired sessions cannot be re-registered.
func TestSessionDemux(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("demux-secret")

	var observed atomic.Int64
	recv, err := transport.Listen(transport.Config{
		Self: 2, Listen: "127.0.0.1:0", Codec: codec, Secret: secret,
		Observer: func(msg.SessionID, msg.NodeID, msg.Body) { observed.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetEarlyExpiry(300 * time.Millisecond)
	sinkA, sinkB := newSessionSink(), newSessionSink()
	if _, err := recv.RegisterSession(1, sinkA); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.RegisterSession(2, sinkB); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.RegisterSession(1, sinkA); err == nil {
		t.Fatal("duplicate session registration accepted")
	}

	peers := []transport.Peer{{ID: 2, Addr: recv.Addr()}}
	sender, err := transport.Listen(transport.Config{
		Self: 1, Listen: "127.0.0.1:0", Peers: peers, Codec: codec, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	portA, err := sender.RegisterSession(1, newSessionSink())
	if err != nil {
		t.Fatal(err)
	}
	portGhost, err := sender.RegisterSession(9, newSessionSink())
	if err != nil {
		t.Fatal(err)
	}

	help := &vss.HelpMsg{Session: vss.SessionID{Dealer: 1, Tau: 1}}
	portA.Send(2, help)
	select {
	case body := <-sinkA.ch:
		if _, ok := body.(*vss.HelpMsg); !ok {
			t.Fatalf("unexpected body %T", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session frame never arrived")
	}
	select {
	case <-sinkB.ch:
		t.Fatal("session 1 frame delivered to session 2")
	default:
	}

	// Unknown session: receiver never hosts session 9. The frame is held
	// in case it does, and written off when the expiry passes.
	portGhost.Send(2, help)
	if st := waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.EarlyHeld == 1 }); st.UnknownSession != 0 {
		t.Fatalf("held frame already counted as dropped: %+v", st)
	}
	waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.UnknownSession == 1 && st.EarlyExpired == 1 })

	// Completed-session replay: retire session 1, then resend. A retired
	// session's frame is never held.
	recv.RetireSession(1)
	portA.Send(2, help)
	st := waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.StaleSession == 1 })
	if st.UnknownSession != 1 || st.EarlyHeld != 1 {
		t.Fatalf("unknown-session or early-frame count drifted: %+v", st)
	}
	select {
	case <-sinkA.ch:
		t.Fatal("retired session still delivered")
	default:
	}
	if _, err := recv.RegisterSession(1, newSessionSink()); err == nil {
		t.Fatal("retired session was resurrected")
	}
	if got := observed.Load(); got != 1 {
		t.Fatalf("observer saw %d messages, want only the one for the live session", got)
	}
}

// TestCrossSessionSpliceRejected: a valid frame captured from session
// A and re-addressed to session B without knowledge of the link
// secret fails the MAC check — the session identifier is inside the
// authenticated region.
func TestCrossSessionSpliceRejected(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("splice-secret")

	recv, err := transport.Listen(transport.Config{
		Self: 2, Listen: "127.0.0.1:0", Codec: codec, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	sinkA, sinkB := newSessionSink(), newSessionSink()
	if _, err := recv.RegisterSession(1, sinkA); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.RegisterSession(2, sinkB); err != nil {
		t.Fatal(err)
	}

	// Craft a valid session-1 frame the way the transport does.
	help := &vss.HelpMsg{Session: vss.SessionID{Dealer: 1, Tau: 1}}
	payload, err := help.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	seal := func(sid msg.SessionID) []byte {
		inner := []byte{byte(help.MsgType())}
		inner = binary.BigEndian.AppendUint64(inner, uint64(sid))
		inner = binary.BigEndian.AppendUint64(inner, 1) // from
		inner = binary.BigEndian.AppendUint64(inner, 2) // to
		inner = append(inner, payload...)
		mac := hmac.New(sha256.New, secret)
		mac.Write(inner)
		inner = mac.Sum(inner)
		out := binary.BigEndian.AppendUint32(nil, uint32(len(inner)))
		return append(out, inner...)
	}
	valid := seal(1)

	// Splice: flip the session field to 2, keep session 1's MAC.
	spliced := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(spliced[5:13], 2)

	conn, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(spliced); err != nil {
		t.Fatal(err)
	}
	waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.BadFrame == 1 })
	select {
	case <-sinkB.ch:
		t.Fatal("spliced frame delivered to session 2")
	case <-sinkA.ch:
		t.Fatal("spliced frame delivered to session 1")
	default:
	}

	// The unmodified frame still authenticates on a fresh connection
	// (the transport hangs up after a bad frame).
	conn2, err := net.Dial("tcp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(valid); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sinkA.ch:
	case <-time.After(10 * time.Second):
		t.Fatal("valid frame never delivered")
	}
}

// TestSessionTimersAndRecoverFanout: session ports namespace timer
// identifiers, and a recover signal reaches every live session.
func TestSessionTimersAndRecoverFanout(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	fired := make(chan [2]uint64, 8)
	mkSink := func(tag uint64) transport.Handler {
		return timerTagSink{tag: tag, ch: fired}
	}
	node, err := transport.Listen(transport.Config{
		Self: 1, Listen: "127.0.0.1:0", Codec: codec, Secret: []byte("s"),
		TimerUnit: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	p1, err := node.RegisterSession(1, mkSink(1))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := node.RegisterSession(2, mkSink(2))
	if err != nil {
		t.Fatal(err)
	}
	p1.SetTimer(5, 10)
	p2.SetTimer(5, 10)
	seen := map[[2]uint64]bool{}
	for i := 0; i < 2; i++ {
		select {
		case f := <-fired:
			seen[f] = true
		case <-time.After(10 * time.Second):
			t.Fatal("session timer never fired")
		}
	}
	if !seen[[2]uint64{1, 5}] || !seen[[2]uint64{2, 5}] {
		t.Fatalf("timer fan-out wrong: %v", seen)
	}

	node.SignalRecover()
	for i := 0; i < 2; i++ {
		select {
		case f := <-fired:
			if f[1] != 999 {
				t.Fatalf("unexpected event %v", f)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("recover fan-out incomplete")
		}
	}
}

type timerTagSink struct {
	tag uint64
	ch  chan [2]uint64
}

func (s timerTagSink) HandleMessage(msg.NodeID, msg.Body) {}
func (s timerTagSink) HandleTimer(id uint64)              { s.ch <- [2]uint64{s.tag, id} }
func (s timerTagSink) HandleRecover()                     { s.ch <- [2]uint64{s.tag, 999} }
