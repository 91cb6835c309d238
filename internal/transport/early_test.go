package transport_test

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/telemetry"
	"hybriddkg/internal/transport"
	"hybriddkg/internal/vss"
)

// rawSender writes hand-sealed frames to a node over a plain TCP
// connection, so a test decides each frame's session and claimed sender.
type rawSender struct {
	t      *testing.T
	conn   net.Conn
	secret []byte
	to     msg.NodeID
}

func dialRaw(t *testing.T, node *transport.Node, secret []byte, to msg.NodeID) *rawSender {
	t.Helper()
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSender{t: t, conn: conn, secret: secret, to: to}
}

// numberedFrame seals one message that an orderSink records by number.
func numberedFrame(t *testing.T, secret []byte, sid msg.SessionID, from, to msg.NodeID, number int64) []byte {
	t.Helper()
	frame, err := transport.SealFrame(secret, sid, from, to, &vss.RecShareMsg{Session: vss.SessionID{Dealer: 1, Tau: 1}, Share: big64(number)})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func (r *rawSender) send(sid msg.SessionID, from msg.NodeID, number int64) {
	r.t.Helper()
	if _, err := r.conn.Write(numberedFrame(r.t, r.secret, sid, from, r.to, number)); err != nil {
		r.t.Fatal(err)
	}
}

// lookAheadSink calls before ahead of every message it passes on.
type lookAheadSink struct {
	*orderSink
	before func()
}

func (s lookAheadSink) HandleMessage(from msg.NodeID, body msg.Body) {
	s.before()
	s.orderSink.HandleMessage(from, body)
}

// TestEarlyFramesReleasedInOrder: frames that reach a node before it
// registers their session are handed to the session when it does, in
// arrival order and ahead of what arrives afterwards, and the observer
// sees them at that point and not before. Both dispatch modes.
func TestEarlyFramesReleasedInOrder(t *testing.T) {
	for _, shard := range []bool{false, true} {
		gr := group.Test256()
		codec := buildCodec(t, gr)
		secret := []byte("early-secret")
		var obsMu sync.Mutex
		var observed []int64
		recv, err := transport.Listen(transport.Config{
			Self: 2, Listen: "127.0.0.1:0", Codec: codec, Secret: secret, ShardSessions: shard,
			Observer: func(_ msg.SessionID, _ msg.NodeID, body msg.Body) {
				obsMu.Lock()
				observed = append(observed, body.(*vss.RecShareMsg).Share.Int64())
				obsMu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		raw := dialRaw(t, recv, secret, 2)
		const early, late = 20, 5
		for i := 1; i <= early; i++ {
			raw.send(7, 1, int64(i))
		}
		st := waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.EarlyHeld == early })
		obsMu.Lock()
		sawEarly := len(observed)
		obsMu.Unlock()
		if st.UnknownSession != 0 || sawEarly != 0 {
			t.Fatalf("shard=%v: before registration: %+v, observer saw %d", shard, st, sawEarly)
		}
		// The observer is there to look ahead: it has seen every released
		// frame by the time the handler gets the first of them.
		var unseen atomic.Int32
		sink := &orderSink{}
		if _, err := recv.RegisterSession(7, lookAheadSink{sink, func() {
			obsMu.Lock()
			if len(observed) < early {
				unseen.Add(1)
			}
			obsMu.Unlock()
		}}); err != nil {
			t.Fatal(err)
		}
		for i := early + 1; i <= early+late; i++ {
			raw.send(7, 1, int64(i))
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(sink.recorded()) < early+late {
			if time.Now().After(deadline) {
				t.Fatalf("shard=%v: %d of %d frames delivered", shard, len(sink.recorded()), early+late)
			}
			time.Sleep(2 * time.Millisecond)
		}
		for i, tau := range sink.recorded() {
			if tau != int64(i+1) {
				t.Fatalf("shard=%v: delivery order %v", shard, sink.recorded())
			}
		}
		obsMu.Lock()
		sawAll := len(observed)
		obsMu.Unlock()
		if st := recv.DemuxStats(); st.EarlyReleased != early || st.EarlyExpired != 0 || st.UnknownSession != 0 || sawAll != early+late {
			t.Fatalf("shard=%v: after registration: %+v, observer saw %d", shard, st, sawAll)
		}
		if unseen.Load() != 0 {
			t.Fatalf("shard=%v: the handler was given %d frames before the observer had seen the released ones", shard, unseen.Load())
		}
		recv.Close()
	}
}

// TestEarlyFrameBudgets: the buffer is bounded per session, per sender
// and in total, and a frame over any of the three is counted as an
// unknown-session drop. With a budget worth 24 frames, a session may
// hold 3, a sender 6.
func TestEarlyFrameBudgets(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("budget-secret")
	size := len(numberedFrame(t, secret, 1<<20, 1, 9, 1))
	recv, err := transport.Listen(transport.Config{
		Self: 9, Listen: "127.0.0.1:0", Codec: codec, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetEarlyBudget(24 * size)
	raw := dialRaw(t, recv, secret, 9)
	expect := func(what string, held, overflow int) {
		t.Helper()
		st := waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.EarlyHeld+st.EarlyOverflow == held+overflow })
		if st.EarlyHeld != held || st.EarlyOverflow != overflow || st.UnknownSession != overflow {
			t.Fatalf("%s: %+v, want %d held and %d overflowed", what, st, held, overflow)
		}
	}
	// Session budget: the fourth frame of session 100 does not fit.
	for i := 0; i < 4; i++ {
		raw.send(100, 1, int64(i+1))
	}
	expect("per session", 3, 1)
	// Sender budget: sender 1 fills a second session, and a frame for a
	// third is one too many from it.
	for i := 0; i < 3; i++ {
		raw.send(101, 1, int64(i+1))
	}
	raw.send(102, 1, 1)
	expect("per sender", 6, 2)
	// Total: senders 2, 3 and 4 use their six frames each; sender 5, well
	// inside its own and its session's budget, finds the buffer full.
	for from := msg.NodeID(2); from <= 4; from++ {
		for i := 0; i < 6; i++ {
			raw.send(msg.SessionID(200+10*uint64(from)+uint64(i/3)), from, int64(i+1))
		}
	}
	expect("filling up", 24, 2)
	raw.send(300, 5, 1)
	expect("total", 24, 3)
	// Registration frees what a session held, and the freed room is usable.
	sink := &orderSink{}
	if _, err := recv.RegisterSession(100, sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		raw.send(300, 5, int64(i+1))
	}
	expect("after a release", 27, 3)
	if st := recv.DemuxStats(); st.EarlyReleased != 3 {
		t.Fatalf("released %d frames, want 3", st.EarlyReleased)
	}

	// A node told to hold nothing drops an early frame as it always did.
	none, err := transport.Listen(transport.Config{
		Self: 9, Listen: "127.0.0.1:0", Codec: codec, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer none.Close()
	none.SetEarlyBudget(0)
	dialRaw(t, none, secret, 9).send(100, 1, 1)
	if st := waitDemux(t, none, func(st transport.DemuxStats) bool { return st.UnknownSession == 1 }); st.EarlyHeld != 0 || st.EarlyOverflow != 1 {
		t.Fatalf("zero budget: %+v", st)
	}
}

// TestEarlyFrameExpiry: a held frame whose session is not registered
// within the expiry is counted as an unknown-session drop, and a later
// registration gets nothing of it. Session 0 is never held.
func TestEarlyFrameExpiry(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("expiry-secret")
	recv, err := transport.Listen(transport.Config{
		Self: 2, Listen: "127.0.0.1:0", Codec: codec, Secret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetEarlyExpiry(150 * time.Millisecond)
	raw := dialRaw(t, recv, secret, 2)
	raw.send(0, 1, 1)
	if st := waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.UnknownSession == 1 }); st.EarlyHeld != 0 {
		t.Fatalf("session-0 frame was held: %+v", st)
	}
	raw.send(5, 1, 1)
	raw.send(6, 3, 2)
	waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.EarlyHeld == 2 })
	time.Sleep(75 * time.Millisecond)
	raw.send(5, 1, 3) // younger: outlives the first two
	st := waitDemux(t, recv, func(st transport.DemuxStats) bool { return st.EarlyExpired == 2 })
	if st.EarlyHeld != 3 || st.UnknownSession != 3 {
		t.Fatalf("after the first expiry: %+v", st)
	}
	sink := &orderSink{}
	if _, err := recv.RegisterSession(5, sink); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.recorded()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the frame still inside its expiry was not released")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	if got := sink.recorded(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("session 5 was handed %v, want the one unexpired frame", got)
	}
	if st := recv.DemuxStats(); st.EarlyExpired != 2 || st.EarlyReleased != 1 || st.UnknownSession != 3 {
		t.Fatalf("final books: %+v", st)
	}
	// The registry carries the same books.
	reg := telemetry.NewRegistry()
	recv.RegisterMetrics(reg)
	want := map[string]float64{
		"transport_early_held_total": 3, "transport_early_released_total": 1,
		"transport_early_expired_total": 2, "transport_early_overflow_total": 0,
	}
	for _, sm := range reg.Gather() {
		if v, ok := want[sm.Name]; ok {
			if sm.Value != v {
				t.Fatalf("%s = %v, want %v", sm.Name, sm.Value, v)
			}
			delete(want, sm.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("series missing from the registry: %v", want)
	}
}

// serialSink is a session state machine with no lock of its own, as
// dkg.Node is: seen is unguarded on purpose, so the race detector reports
// two goroutines inside one session even when they do not overlap in
// time, and overlap counts the ones that do.
type serialSink struct {
	seen     int
	inFlight atomic.Int32
	overlap  atomic.Int32
	done     atomic.Int32
}

func (s *serialSink) HandleMessage(msg.NodeID, msg.Body) {
	if s.inFlight.Add(1) > 1 {
		s.overlap.Add(1)
	}
	s.seen++
	runtime.Gosched()
	s.inFlight.Add(-1)
	s.done.Add(1)
}
func (s *serialSink) HandleTimer(uint64) {}
func (s *serialSink) HandleRecover()     {}

// TestRegisterWhileFramesInFlight: a session registered from another
// goroutine halfway through its stream of frames — some held, some on
// the event queue, one perhaps already taken off it — has every frame
// handled exactly once and by one goroutine at a time. Both dispatch
// modes; CI runs it under -race.
func TestRegisterWhileFramesInFlight(t *testing.T) {
	for _, shard := range []bool{false, true} {
		gr := group.Test256()
		codec := buildCodec(t, gr)
		secret := []byte("inflight-secret")
		recv, err := transport.Listen(transport.Config{
			Self: 2, Listen: "127.0.0.1:0", Codec: codec, Secret: secret, ShardSessions: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw := dialRaw(t, recv, secret, 2)
		const sessions, frames = 150, 24
		sinks := make([]*serialSink, sessions)
		var sent atomic.Int64
		regErr := make(chan error, 1)
		go func() {
			for s := range sinks {
				for sent.Load() < int64(s*frames+frames/2) {
					runtime.Gosched()
				}
				sinks[s] = &serialSink{}
				if _, err := recv.RegisterSession(msg.SessionID(1000+s), sinks[s]); err != nil {
					regErr <- err
					return
				}
			}
			regErr <- nil
		}()
		for s := 0; s < sessions; s++ {
			for i := 1; i <= frames; i++ {
				raw.send(msg.SessionID(1000+s), 1, int64(i))
				sent.Add(1)
			}
		}
		if err := <-regErr; err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for s, sink := range sinks {
			for sink.done.Load() < frames {
				if time.Now().After(deadline) {
					t.Fatalf("shard=%v: session %d handled %d of %d frames; %+v", shard, s, sink.done.Load(), frames, recv.DemuxStats())
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		recv.Close()
		for s, sink := range sinks {
			if sink.seen != frames || sink.overlap.Load() != 0 {
				t.Fatalf("shard=%v: session %d handled %d frames (want %d), %d of them while another was inside", shard, s, sink.seen, frames, sink.overlap.Load())
			}
		}
		if st := recv.DemuxStats(); st.UnknownSession != 0 || st.EarlyHeld != st.EarlyReleased {
			t.Fatalf("shard=%v: %+v", shard, st)
		}
	}
}
