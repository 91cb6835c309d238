package transport

import (
	"testing"
	"time"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/vss"
)

// parkingSink reports each entry into the handler and stays inside
// until released.
type parkingSink struct {
	entered chan struct{}
	release chan struct{}
}

func (s *parkingSink) HandleMessage(msg.NodeID, msg.Body) {
	s.entered <- struct{}{}
	<-s.release
}
func (s *parkingSink) HandleTimer(uint64) {}
func (s *parkingSink) HandleRecover()     {}

// TestRegistrationBetweenPopAndDispatch replays the interleaving a stress
// test hits only rarely: the event loop has taken message X of a session
// off its queue while the session had no lane, another goroutine then
// registers the session — its held message goes onto a new lane, whose
// goroutine starts on it — and only now is X dispatched. X must follow
// onto the lane: handled on the event loop, it would put a second
// goroutine into an unlocked state machine.
func TestRegistrationBetweenPopAndDispatch(t *testing.T) {
	n, err := Listen(Config{
		Self: 2, Listen: "127.0.0.1:0", Codec: fuzzCodec(t), Secret: []byte("pop-secret"), ShardSessions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	x := event{kind: 1, session: 7, from: 1, body: &vss.HelpMsg{Session: vss.SessionID{Dealer: 1, Tau: 1}}, wire: 64}
	n.dispatchEvent(x, nil)
	if st := n.DemuxStats(); st.EarlyHeld != 1 {
		t.Fatalf("the unregistered session's message was not held: %+v", st)
	}
	sink := &parkingSink{entered: make(chan struct{}, 2), release: make(chan struct{})}
	defer close(sink.release)
	if _, err := n.RegisterSession(7, sink); err != nil {
		t.Fatal(err)
	}
	<-sink.entered // the lane is inside the handler with the released message
	dispatched := make(chan struct{})
	go func() {
		n.dispatchEvent(x, nil) // the event loop, resuming with what it popped
		close(dispatched)
	}()
	select {
	case <-sink.entered:
		t.Fatal("the event loop ran the session's handler while its lane was inside it")
	case <-dispatched:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch neither returned nor reached the handler")
	}
	sink.release <- struct{}{}
	select {
	case <-sink.entered: // X, on the lane, after the released message
	case <-time.After(10 * time.Second):
		t.Fatal("the passed-on message never reached the handler")
	}
}
