package harness_test

import (
	"math/big"
	"runtime"
	"testing"
	"time"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/engine"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/verify"
	"hybriddkg/internal/vss"
)

// The parallel-verification differential suite: every scenario runs
// twice from the same seed — once with the verification pipeline off
// (the sequential baseline) and once with speculative workers, the
// shared verdict cache and parallel batch flushes — and the final
// transcripts must be bit-identical: same message/byte counts (the
// event schedule is untouched), and per node per session the same
// public key, share, Q set, final view and joint commitment. The
// pipeline is pure cache warming; these tests pin that contract under
// the race detector, adversarial mixes included.

// transcriptsEqual compares two completion events field by field.
func transcriptsEqual(t *testing.T, a, b dkg.CompletedEvent) {
	t.Helper()
	if a.Tau != b.Tau || a.FinalView != b.FinalView {
		t.Fatalf("τ/view diverged: (%d,%d) vs (%d,%d)", a.Tau, a.FinalView, b.Tau, b.FinalView)
	}
	if !a.PublicKey.Equal(b.PublicKey) {
		t.Fatal("public keys diverged")
	}
	if a.Share.Cmp(b.Share) != 0 {
		t.Fatal("shares diverged")
	}
	if len(a.Q) != len(b.Q) {
		t.Fatalf("Q sizes diverged: %d vs %d", len(a.Q), len(b.Q))
	}
	for i := range a.Q {
		if a.Q[i] != b.Q[i] {
			t.Fatalf("Q sets diverged at %d", i)
		}
	}
	if !a.V.Equal(b.V) {
		t.Fatal("vector commitments diverged")
	}
	if (a.C == nil) != (b.C == nil) || (a.C != nil && !a.C.Equal(b.C)) {
		t.Fatal("joint commitment matrices diverged")
	}
}

// runPair executes the same concurrent-session configuration with and
// without the pipeline and compares everything.
func runPair(t *testing.T, opts harness.ConcurrentDKGOptions) (seq, par *harness.ConcurrentDKGResult) {
	t.Helper()
	opts.VerifyWorkers = 0
	seq, err := harness.RunConcurrentSessions(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.VerifyWorkers = 4
	par, err = harness.RunConcurrentSessions(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if seq.Stats.TotalMsgs != par.Stats.TotalMsgs || seq.Stats.TotalBytes != par.Stats.TotalBytes {
		t.Fatalf("event schedule diverged: (%d msgs, %d bytes) vs (%d msgs, %d bytes)",
			seq.Stats.TotalMsgs, seq.Stats.TotalBytes, par.Stats.TotalMsgs, par.Stats.TotalBytes)
	}
	for s := 1; s <= opts.Sessions; s++ {
		sid := msg.SessionID(s)
		if len(seq.Completed[sid]) != len(par.Completed[sid]) {
			t.Fatalf("session %d completion counts diverged: %d vs %d",
				s, len(seq.Completed[sid]), len(par.Completed[sid]))
		}
		for id, evSeq := range seq.Completed[sid] {
			evPar, ok := par.Completed[sid][id]
			if !ok {
				t.Fatalf("session %d node %d completed only sequentially", s, id)
			}
			transcriptsEqual(t, evSeq, evPar)
		}
	}
	return seq, par
}

// TestParallelVerifyDifferentialHonest: honest multi-session runs,
// full-matrix and hashed-echo modes, and one whose initial leader
// crashes just after the start. Echo and ready signatures are checked only where they become
// evidence, so a healthy flood run gives the speculator nothing to do;
// a leader change does (lead-ch signatures, the new leader's proof).
func TestParallelVerifyDifferentialHonest(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		_, par := runPair(t, harness.ConcurrentDKGOptions{
			Sessions: 3, N: 7, T: 2, Seed: 42, HashedEcho: hashed,
		})
		if stored, _ := par.Directory.SpeculationStats(); stored != 0 {
			t.Fatalf("healthy flood run speculated %d verdicts", stored)
		}
	}
	_, par := runPair(t, harness.ConcurrentDKGOptions{
		Sessions: 3, N: 7, T: 2, Seed: 42, CrashAt: map[msg.NodeID]int64{1: 1},
	})
	if stored, _ := par.Directory.SpeculationStats(); stored == 0 {
		t.Fatal("leader change ran but the pipeline never stored a verdict (speculation dead?)")
	}
}

// TestParallelVerifyDifferentialByzantine: the cross-session copy
// attacker splices every frame between two sessions; verdict caching
// must not let a spliced frame land differently.
func TestParallelVerifyDifferentialByzantine(t *testing.T) {
	const n = 7
	runPair(t, harness.ConcurrentDKGOptions{
		Sessions: 2, N: n, T: 2, Seed: 5,
		MaxEvents: 2_000_000,
		Byzantine: map[msg.NodeID]func(net *simnet.Network, node msg.NodeID, sid msg.SessionID) simnet.Handler{
			7: func(net *simnet.Network, node msg.NodeID, sid msg.SessionID) simnet.Handler {
				other := msg.SessionID(3 - uint64(sid)) // 1 <-> 2
				return &copyBridge{self: node, n: n, target: net.SessionEnv(node, other)}
			},
		},
	})
}

// corruptEchoer is a Byzantine member that, upon its dealer row,
// floods everyone with off-by-one echo evaluations — every one of its
// points must be rejected, speculatively verified or not.
type corruptEchoer struct {
	self msg.NodeID
	n    int
	q    *big.Int
	env  *simnet.Env
}

func (c *corruptEchoer) HandleMessage(from msg.NodeID, body msg.Body) {
	m, ok := body.(*vss.SendMsg)
	if !ok || m.OmitPoly || m.C == nil {
		return
	}
	row, err := poly.FromCoeffs(c.q, m.A)
	if err != nil {
		return
	}
	for j := 1; j <= c.n; j++ {
		forged := new(big.Int).Add(row.EvalInt(int64(j)), big.NewInt(1))
		forged.Mod(forged, c.q)
		c.env.Send(msg.NodeID(j), &vss.EchoMsg{
			Session: m.Session, C: m.C, CHash: m.C.Hash(), Alpha: forged,
		})
	}
}
func (c *corruptEchoer) HandleTimer(uint64) {}
func (c *corruptEchoer) HandleRecover()     {}

// TestParallelVerifyDifferentialCorruptPoints: forged echo points from
// a Byzantine member are rejected identically with and without the
// pipeline, and the cluster still completes.
func TestParallelVerifyDifferentialCorruptPoints(t *testing.T) {
	const n = 7
	q := group.Test256().Q()
	run := func(workers int) *harness.DKGResult {
		res, err := harness.RunDKG(harness.DKGOptions{
			N: n, T: 2, Seed: 19, VerifyWorkers: workers,
			Byzantine: map[msg.NodeID]func(env *simnet.Env) simnet.Handler{
				6: func(env *simnet.Env) simnet.Handler {
					return &corruptEchoer{self: 6, n: n, q: q, env: env}
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.HonestDone() != n-1 {
			t.Fatalf("only %d/%d honest nodes completed", res.HonestDone(), n-1)
		}
		if err := res.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(0)
	par := run(4)
	defer par.Close()
	if seq.Stats.TotalMsgs != par.Stats.TotalMsgs || seq.Stats.TotalBytes != par.Stats.TotalBytes {
		t.Fatalf("event schedule diverged: (%d,%d) vs (%d,%d)",
			seq.Stats.TotalMsgs, seq.Stats.TotalBytes, par.Stats.TotalMsgs, par.Stats.TotalBytes)
	}
	for id, evSeq := range seq.Completed {
		evPar, ok := par.Completed[id]
		if !ok {
			t.Fatalf("node %d completed only sequentially", id)
		}
		transcriptsEqual(t, evSeq, evPar)
	}
}

// TestVerifyPipelineNoGoroutineLeak: a full pipelined run releases
// every worker goroutine on Close, and the engine-owned variant
// releases them on engine.Close.
func TestVerifyPipelineNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	res, err := harness.RunConcurrentSessions(harness.ConcurrentDKGOptions{
		Sessions: 2, N: 4, T: 1, Seed: 8, VerifyWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckAllSessions(); err != nil {
		t.Fatal(err)
	}
	res.Close()
	res.Close() // idempotent
	waitGoroutines(t, before)
}

// idleRunner is a no-op engine runner for lifecycle tests.
type idleRunner struct{}

func (idleRunner) HandleMessage(msg.NodeID, msg.Body) {}
func (idleRunner) HandleTimer(uint64)                 {}
func (idleRunner) HandleRecover()                     {}
func (idleRunner) Done() bool                         { return false }

// TestEngineCloseJoinsVerifyPool: the engine owns its verify pool's
// lifecycle — Close drains and joins the workers (the goroutine-leak
// assertion across engine Close/GC).
func TestEngineCloseJoinsVerifyPool(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := verify.NewPool(8)
	net := simnet.New(simnet.Options{Seed: 1})
	eng, err := engine.New(engine.Config{
		Fabric: engine.NewSimnetFabric(net, 1),
		Factory: func(msg.SessionID, engine.Runtime) (engine.Runner, error) {
			return idleRunner{}, nil
		},
		VerifyPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		pool.Submit(func() { time.Sleep(time.Microsecond) })
	}
	eng.Close()
	eng.GC(1)
	if pool.Submit(func() {}) {
		t.Fatal("pool still accepting work after engine Close")
	}
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count returns to the
// baseline (workers park asynchronously after Close returns only if
// something is broken — Close joins, so this converges immediately in
// practice; the loop absorbs unrelated runtime goroutines winding
// down).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline=%d now=%d", baseline, runtime.NumGoroutine())
}
