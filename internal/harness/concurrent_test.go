package harness_test

import (
	"testing"

	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/simnet"
)

// TestConcurrentDKGSessions: S sessions multiplexed over one cluster
// all complete, each internally consistent, with pairwise distinct
// keys — one key per session, as the serve runtime promises.
func TestConcurrentDKGSessions(t *testing.T) {
	res, err := harness.RunConcurrentDKGs(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 3; s++ {
		if got := res.SessionDone(msg.SessionID(s)); got != 4 {
			t.Fatalf("session %d completed on %d/4 nodes", s, got)
		}
	}
	if err := res.CheckAllSessions(); err != nil {
		t.Fatal(err)
	}
	// The shared verifier must actually be shared. Each node checks echo
	// signatures once, when its lock draws the first ⌈(n+t+1)/2⌉ = 3 to
	// arrive, its own unchecked. Those 4·2 checks per session cover at
	// most the session's 4 distinct echo signatures, so at least 4 hit.
	hits, misses := res.Directory.VerifyCacheStats()
	if want := uint64(3 * (4*2 - 4)); hits < want {
		t.Fatalf("verify cache ineffective: hits=%d misses=%d, want at least %d hits", hits, misses, want)
	}
}

// TestConcurrentWorkerPoolBound: Workers=1 serialises the sessions
// through each node's engine; everything still completes.
func TestConcurrentWorkerPoolBound(t *testing.T) {
	res, err := harness.RunConcurrentSessions(harness.ConcurrentDKGOptions{
		Sessions: 3, N: 4, T: 1, Seed: 7, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckAllSessions(); err != nil {
		t.Fatal(err)
	}
	for _, eng := range res.Engines {
		st := eng.Stats()
		if st.Completed != 3 {
			t.Fatalf("engine stats: %+v", st)
		}
	}
}

// TestConcurrentDeterminism: same seed, same schedules — the
// multiplexed runtime preserves the simulator's reproducibility.
func TestConcurrentDeterminism(t *testing.T) {
	run := func() (int, int64) {
		res, err := harness.RunConcurrentSessions(harness.ConcurrentDKGOptions{
			Sessions: 2, N: 4, T: 1, Seed: 11, StaggerStart: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckAllSessions(); err != nil {
			t.Fatal(err)
		}
		return res.Stats.TotalMsgs, res.Stats.TotalBytes
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", m1, b1, m2, b2)
	}
}

// TestConcurrentCrashInterleaving: with sessions staggered so session
// 1 is mid-flight when session 2 starts, crashing the initial leader
// forces leader changes while the other session keeps making
// progress. Both sessions complete on every live node.
func TestConcurrentCrashInterleaving(t *testing.T) {
	res, err := harness.RunConcurrentSessions(harness.ConcurrentDKGOptions{
		Sessions: 2, N: 7, T: 1, F: 1, Seed: 3,
		TimeoutBase:  2000,
		StaggerStart: 100,
		CrashAt:      map[msg.NodeID]int64{1: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 2; s++ {
		if got := res.SessionDone(msg.SessionID(s)); got < 6 {
			t.Fatalf("session %d completed on %d/6 live nodes", s, got)
		}
		if err := res.CheckSessionConsistency(msg.SessionID(s)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentCrashedFromStart: a node crashed before any session
// is submitted runs none of them, and the live nodes must change leader
// (node 1 leads view 1) to decide every session.
func TestConcurrentCrashedFromStart(t *testing.T) {
	const sessions = 3
	res, err := harness.RunConcurrentSessions(harness.ConcurrentDKGOptions{
		Sessions: sessions, N: 7, T: 1, F: 1, Seed: 4,
		TimeoutBase:      2000,
		CrashedFromStart: []msg.NodeID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := msg.SessionID(1); s <= sessions; s++ {
		done := res.Completed[s]
		if _, ok := done[1]; ok {
			t.Fatalf("session %d completed on crashed node 1", s)
		}
		if len(done) != 6 {
			t.Fatalf("session %d completed on %d/6 live nodes", s, len(done))
		}
		for id, ev := range done {
			if ev.FinalView < 2 {
				t.Fatalf("session %d: node %d decided at view %d without a leader change", s, id, ev.FinalView)
			}
		}
		if err := res.CheckSessionConsistency(s); err != nil {
			t.Fatal(err)
		}
	}
}

// copyBridge is the Byzantine cross-session attacker: everything it
// receives in its source session is re-broadcast verbatim into the
// target session (it holds the link secret, so the frames authenticate
// — only the protocol-level session counters can reject them).
type copyBridge struct {
	self   msg.NodeID
	n      int
	target *simnet.Env
}

func (b *copyBridge) HandleMessage(from msg.NodeID, body msg.Body) {
	if from == b.self {
		// Don't amplify our own cross-session copies (the bridge in
		// the other session receives them too): each honest frame is
		// spliced exactly once.
		return
	}
	for j := 1; j <= b.n; j++ {
		b.target.Send(msg.NodeID(j), body)
	}
}
func (b *copyBridge) HandleTimer(uint64) {}
func (b *copyBridge) HandleRecover()     {}

// TestByzantineCrossSessionCopy: a Byzantine member replays every
// valid session-1 frame into session 2 and vice versa. Both sessions
// must complete unaffected, stay internally consistent, and still
// produce distinct keys — the demux delivers the frames, and the
// τ-checks inside the state machines drop them.
func TestByzantineCrossSessionCopy(t *testing.T) {
	const n = 7
	res, err := harness.RunConcurrentSessions(harness.ConcurrentDKGOptions{
		Sessions: 2, N: n, T: 2, Seed: 5,
		MaxEvents: 2_000_000,
		Byzantine: map[msg.NodeID]func(net *simnet.Network, node msg.NodeID, sid msg.SessionID) simnet.Handler{
			7: func(net *simnet.Network, node msg.NodeID, sid msg.SessionID) simnet.Handler {
				other := msg.SessionID(3 - uint64(sid)) // 1 <-> 2
				return &copyBridge{self: node, n: n, target: net.SessionEnv(node, other)}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 2; s++ {
		if got := res.SessionDone(msg.SessionID(s)); got != n-1 {
			t.Fatalf("session %d completed on %d/%d honest nodes", s, got, n-1)
		}
	}
	if err := res.CheckAllSessions(); err != nil {
		t.Fatal(err)
	}
}

// TestCompletedSessionReplayDropped: after a session completes and is
// retired everywhere, replaying its recorded traffic is rejected by
// the router (counted stale) without resurrecting any protocol state.
func TestCompletedSessionReplayDropped(t *testing.T) {
	res, err := harness.RunConcurrentDKGs(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckAllSessions(); err != nil {
		t.Fatal(err)
	}
	net := res.Net
	for i := 1; i <= 4; i++ {
		if !net.SessionRetired(msg.NodeID(i), 1) {
			t.Fatalf("node %d did not retire session 1", i)
		}
	}
	before := net.Stats()
	// Replay: inject a fresh copy of session-1 traffic toward node 2.
	env := net.SessionEnv(1, 1)
	env.Send(2, replayProbeBody{})
	net.Run(0)
	after := net.Stats()
	if after.DroppedStaleSession != before.DroppedStaleSession+1 {
		t.Fatalf("stale drops %d -> %d, want +1", before.DroppedStaleSession, after.DroppedStaleSession)
	}
	// Unknown sessions are distinguished from stale ones.
	ghost := net.SessionEnv(1, 99)
	ghost.Send(2, replayProbeBody{})
	net.Run(0)
	final := net.Stats()
	if final.DroppedUnknownSession != after.DroppedUnknownSession+1 {
		t.Fatalf("unknown drops %d -> %d, want +1", after.DroppedUnknownSession, final.DroppedUnknownSession)
	}
}

type replayProbeBody struct{}

func (replayProbeBody) MsgType() msg.Type              { return msg.TDKGHelp }
func (replayProbeBody) MarshalBinary() ([]byte, error) { return []byte{0, 0, 0, 0, 0, 0, 0, 1}, nil }
