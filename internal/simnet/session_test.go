package simnet

import (
	"testing"

	"hybriddkg/internal/msg"
)

// TestSessionRouting: two sessions multiplexed on one node pair stay
// isolated — each handler sees only its own session's traffic — while
// sharing the per-link FIFO horizon.
func TestSessionRouting(t *testing.T) {
	net := New(Options{Seed: 3})
	a1 := &echoNode{env: net.SessionEnv(1, 1), bound: 4}
	a2 := &echoNode{env: net.SessionEnv(1, 2), bound: 4}
	b1 := &echoNode{env: net.SessionEnv(2, 1), bound: 4}
	b2 := &echoNode{env: net.SessionEnv(2, 2), bound: 4}
	net.RegisterSession(1, 1, a1)
	net.RegisterSession(1, 2, a2)
	net.RegisterSession(2, 1, b1)
	net.RegisterSession(2, 2, b2)

	a1.env.Send(2, pingBody{n: 0})
	a2.env.Send(2, pingBody{n: 100})
	net.Run(0)

	if len(b1.received) == 0 || b1.received[0] != 0 {
		t.Fatalf("session 1 receiver saw %v", b1.received)
	}
	if len(b2.received) == 0 || b2.received[0] != 100 {
		t.Fatalf("session 2 receiver saw %v", b2.received)
	}
	for _, v := range b1.received {
		if v >= 100 {
			t.Fatalf("session 2 traffic leaked into session 1: %v", b1.received)
		}
	}
	for _, v := range b2.received {
		if v < 100 {
			t.Fatalf("session 1 traffic leaked into session 2: %v", b2.received)
		}
	}
	st := net.Stats()
	if st.DroppedUnknownSession != 0 || st.DroppedStaleSession != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
}

// TestSessionUnknownAndStaleDrops: traffic for a session the receiver
// never hosted is counted unknown; traffic for a retired session is
// counted stale. Neither reaches any handler, nor the observer.
func TestSessionUnknownAndStaleDrops(t *testing.T) {
	var observed []msg.SessionID
	net := New(Options{Seed: 4, Observer: func(_ msg.NodeID, sid msg.SessionID, _ msg.NodeID, _ msg.Body) {
		observed = append(observed, sid)
	}})
	sender := &echoNode{env: net.SessionEnv(1, 7), bound: 0}
	receiver := &echoNode{env: net.SessionEnv(2, 7), bound: 0}
	net.RegisterSession(1, 7, sender)
	net.RegisterSession(2, 7, receiver)

	// Unknown: node 2 never hosted session 9.
	ghost := net.SessionEnv(1, 9)
	ghost.Send(2, pingBody{n: 1})
	net.Run(0)
	if got := net.Stats().DroppedUnknownSession; got != 1 {
		t.Fatalf("DroppedUnknownSession = %d, want 1", got)
	}

	// Stale: deliver once, retire, replay.
	sender.env.Send(2, pingBody{n: 2})
	net.Run(0)
	if len(receiver.received) != 1 {
		t.Fatalf("live session undelivered: %v", receiver.received)
	}
	net.RetireSession(2, 7)
	if !net.SessionRetired(2, 7) {
		t.Fatal("session not marked retired")
	}
	sender.env.Send(2, pingBody{n: 3})
	net.Run(0)
	if len(receiver.received) != 1 {
		t.Fatalf("retired session still delivered: %v", receiver.received)
	}
	if got := net.Stats().DroppedStaleSession; got != 1 {
		t.Fatalf("DroppedStaleSession = %d, want 1", got)
	}
	if len(observed) != 1 || observed[0] != 7 {
		t.Fatalf("observer saw sessions %v, want only the live delivery on session 7", observed)
	}
}

// TestSessionTimerNamespaces: the same timer id armed in two sessions
// fires each session's handler independently, and retiring a session
// cancels only its timers.
func TestSessionTimerNamespaces(t *testing.T) {
	net := New(Options{Seed: 5})
	s1 := &echoNode{env: net.SessionEnv(1, 1)}
	s2 := &echoNode{env: net.SessionEnv(1, 2)}
	net.RegisterSession(1, 1, s1)
	net.RegisterSession(1, 2, s2)

	s1.env.SetTimer(42, 10)
	s2.env.SetTimer(42, 20)
	net.Run(0)
	if len(s1.timers) != 1 || s1.timers[0] != 42 {
		t.Fatalf("session 1 timers: %v", s1.timers)
	}
	if len(s2.timers) != 1 || s2.timers[0] != 42 {
		t.Fatalf("session 2 timers: %v", s2.timers)
	}

	s1.env.SetTimer(7, 10)
	s2.env.SetTimer(7, 10)
	net.RetireSession(1, 1)
	net.Run(0)
	if len(s1.timers) != 1 {
		t.Fatalf("retired session timer fired: %v", s1.timers)
	}
	if len(s2.timers) != 2 {
		t.Fatalf("surviving session lost its timer: %v", s2.timers)
	}
}

// TestSessionRecoverFanout: recovering a node signals every hosted
// session exactly once.
func TestSessionRecoverFanout(t *testing.T) {
	net := New(Options{Seed: 6})
	s1 := &echoNode{env: net.SessionEnv(1, 1)}
	s2 := &echoNode{env: net.SessionEnv(1, 2)}
	net.RegisterSession(1, 1, s1)
	net.RegisterSession(1, 2, s2)
	net.Crash(1)
	net.Recover(1)
	if s1.recovers != 1 || s2.recovers != 1 {
		t.Fatalf("recover fanout: %d, %d", s1.recovers, s2.recovers)
	}
}

// TestSessionFilter: the session-aware adversary can drop exactly one
// session's traffic without touching the other.
func TestSessionFilter(t *testing.T) {
	net := New(Options{
		Seed: 7,
		SessionFilter: func(sid msg.SessionID, _, _ msg.NodeID, _ msg.Body) Verdict {
			return Verdict{Drop: sid == 2, AllowDrop: true}
		},
	})
	a1 := &echoNode{env: net.SessionEnv(1, 1)}
	a2 := &echoNode{env: net.SessionEnv(1, 2)}
	b1 := &echoNode{env: net.SessionEnv(2, 1)}
	b2 := &echoNode{env: net.SessionEnv(2, 2)}
	net.RegisterSession(1, 1, a1)
	net.RegisterSession(1, 2, a2)
	net.RegisterSession(2, 1, b1)
	net.RegisterSession(2, 2, b2)

	a1.env.Send(2, pingBody{n: 1})
	a2.env.Send(2, pingBody{n: 2})
	net.Run(0)
	if len(b1.received) != 1 {
		t.Fatalf("session 1 filtered: %v", b1.received)
	}
	if len(b2.received) != 0 {
		t.Fatalf("session 2 delivered despite filter: %v", b2.received)
	}
	if got := net.Stats().DroppedFilter; got != 1 {
		t.Fatalf("DroppedFilter = %d, want 1", got)
	}
}
