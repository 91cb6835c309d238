package verify

import (
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/vss"
)

// TestPoolRunsTasks: submitted tasks all execute; stats add up.
func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 500; i++ {
		wg.Add(1)
		task := func() {
			n.Add(1)
			wg.Done()
		}
		if !p.Submit(task) {
			task()
		}
	}
	wg.Wait()
	if n.Load() != 500 {
		t.Fatalf("ran %d of 500 tasks", n.Load())
	}
	st := p.Stats()
	if st.Submitted+st.Dropped != 500 {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

// TestPoolCloseSemantics: Close is idempotent, joins workers, and
// makes later Submits refuse without running the task.
func TestPoolCloseSemantics(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Bool
	p.Close()
	p.Close() // idempotent
	if p.Submit(func() { ran.Store(true) }) {
		t.Fatal("Submit accepted after Close")
	}
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Fatal("task ran after Close")
	}
}

// TestPoolNoGoroutineLeak: creating and closing pools returns the
// process to its original goroutine count — the engine-shutdown
// guarantee the session runtime relies on.
func TestPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		p := NewPool(8)
		for j := 0; j < 100; j++ {
			p.Submit(func() { time.Sleep(time.Microsecond) })
		}
		p.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// matrixFixture builds a commitment matrix plus valid evaluations
// f(sender, self) for every sender.
func matrixFixture(t *testing.T, gr *group.Group, n, deg int, self int64) (*commit.Matrix, []*big.Int) {
	t.Helper()
	r := randutil.NewReader(7)
	secret, err := gr.RandScalar(r)
	if err != nil {
		t.Fatal(err)
	}
	f, err := poly.NewRandomSymmetric(gr.Q(), secret, deg, r)
	if err != nil {
		t.Fatal(err)
	}
	m := commit.NewMatrix(gr, f)
	alphas := make([]*big.Int, n+1)
	for s := int64(1); s <= int64(n); s++ {
		alphas[s] = f.Eval(s, self)
	}
	return m, alphas
}

// TestSpeculatorWarmsSigMemo: an observed signed lead-ch lands its
// verdict in the directory's memo, the state machine's inline check is
// then a hit counted as a used speculation, and a speculated verdict
// nobody reads stays counted as wasted. Flood echoes and readies, VSS
// and DKG alike, are not speculated on at all: their signatures are
// checked when a proof set is used or the lock draws its M set.
func TestSpeculatorWarmsSigMemo(t *testing.T) {
	scheme := sig.Ed25519{}
	dir := sig.NewDirectory(scheme)
	dir.EnableVerifyCache(0)
	r := randutil.NewReader(3)
	priv, pub, err := scheme.GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Add(2, pub); err != nil {
		t.Fatal(err)
	}
	const tau = 9
	prop := &dkg.Proposal{Q: []msg.NodeID{1, 2}, CHashes: [][32]byte{{1}, {2}}}
	echoSig, err := scheme.Sign(priv, dkg.EchoTranscript(tau, prop.Digest(tau)))
	if err != nil {
		t.Fatal(err)
	}
	readySig, err := scheme.Sign(priv, dkg.ReadyTranscript(tau, prop.Digest(tau)))
	if err != nil {
		t.Fatal(err)
	}
	lcT2, lcT3 := dkg.LeadChTranscript(tau, 2), dkg.LeadChTranscript(tau, 3)
	lcSig2, err := scheme.Sign(priv, lcT2)
	if err != nil {
		t.Fatal(err)
	}
	lcSig3, err := scheme.Sign(priv, lcT3)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool(2)
	defer pool.Close()
	sp := NewSpeculator(pool, dir)
	sp.Observe(2, &vss.ReadyMsg{Session: vss.SessionID{Dealer: 1, Tau: tau}, Alpha: big.NewInt(1), Sig: echoSig})
	sp.Observe(2, &dkg.EchoMsg{Tau: tau, Prop: prop, Sig: echoSig})
	sp.Observe(2, &dkg.ReadyMsg{Tau: tau, Prop: prop, Sig: readySig})
	if st := pool.Stats(); st.Submitted+st.Dropped != 0 {
		t.Fatalf("a flood echo or ready was speculated on: %+v", st)
	}
	sp.Observe(2, &dkg.LeadChMsg{Tau: tau, NewView: 2, Sig: lcSig2})
	sp.Observe(2, &dkg.LeadChMsg{Tau: tau, NewView: 3, Sig: lcSig3})
	pool.Close() // drains and joins: both verdicts are stored

	if stored, used := dir.SpeculationStats(); stored != 2 || used != 0 {
		t.Fatalf("after speculation: stored=%d used=%d, want 2/0", stored, used)
	}
	if hits, misses := dir.VerifyCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("speculation counted as inline lookups: hits=%d misses=%d", hits, misses)
	}
	for i := 0; i < 2; i++ { // the second read is a plain hit, not a second "used"
		if !dir.Verify(2, lcT2, lcSig2) {
			t.Fatal("valid signature rejected")
		}
	}
	if hits, misses := dir.VerifyCacheStats(); hits != 2 || misses != 0 {
		t.Fatalf("inline checks were not memo hits: hits=%d misses=%d", hits, misses)
	}
	if stored, used := dir.SpeculationStats(); stored != 2 || used != 1 {
		t.Fatalf("stored=%d used=%d, want 2/1 (view 3's verdict was never read)", stored, used)
	}
}

// TestPoolAsCommitParallel: the pool satisfies commit.Parallel and a
// parallel batch flush reports exactly the sequential verdicts, honest
// and adversarial alike.
func TestPoolAsCommitParallel(t *testing.T) {
	var _ commit.Parallel = (*Pool)(nil)
	gr := group.Test256()
	const n, deg = 13, 3
	m1, a1 := matrixFixture(t, gr, n, deg, 5)
	pool := NewPool(4)
	defer pool.Close()

	run := func(par commit.Parallel) map[any]bool {
		bv := commit.NewBatchVerifier(gr)
		bv.SetParallel(par)
		for s := int64(1); s <= n; s++ {
			alpha := a1[s]
			if s == 3 { // corrupt one sender
				alpha = new(big.Int).Add(alpha, big.NewInt(1))
				alpha.Mod(alpha, gr.Q())
			}
			bv.AddPoint(s, m1, 5, s, alpha)
		}
		bad := make(map[any]bool)
		for _, tag := range bv.Flush() {
			bad[tag] = true
		}
		return bad
	}
	seq := run(nil)
	par := run(pool)
	if len(seq) != 1 || !seq[int64(3)] {
		t.Fatalf("sequential flush misidentified: %v", seq)
	}
	if len(par) != len(seq) || !par[int64(3)] {
		t.Fatalf("parallel flush verdicts differ: seq=%v par=%v", seq, par)
	}
}
