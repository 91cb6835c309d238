package dataplane

import (
	"errors"
	"math/big"
	"runtime"
	"testing"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

// sent records one outgoing peer message.
type sent struct {
	to   msg.NodeID
	body msg.Body
}

// testRig is a single standalone service with recorded side effects:
// the test plays the rest of the cluster by hand.
type testRig struct {
	gr        *group.Group
	svc       *Service
	keyP      *poly.Poly
	keyV      *commit.Vector
	sends     []sent
	submitted []msg.SessionID
}

func newTestRig(t *testing.T, n, th int, tweak func(*Config)) *testRig {
	t.Helper()
	return newTestRigOn(t, group.Test256(), n, th, tweak)
}

func newTestRigOn(t *testing.T, gr *group.Group, n, th int, tweak func(*Config)) *testRig {
	t.Helper()
	rng := randutil.NewReader(0xD1CE)
	rig := &testRig{gr: gr}
	peers := make([]msg.NodeID, 0, n)
	for i := 1; i <= n; i++ {
		peers = append(peers, msg.NodeID(i))
	}
	cfg := Config{
		Group: gr,
		Self:  1,
		N:     n,
		T:     th,
		Peers: peers,
		Send:  func(to msg.NodeID, body msg.Body) { rig.sends = append(rig.sends, sent{to, body}) },
		Submit: func(sid msg.SessionID) {
			rig.submitted = append(rig.submitted, sid)
		},
		Rand: rng,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rig.svc = NewService(cfg)
	var err error
	rig.keyP, err = poly.NewRandom(gr.Q(), th, rng)
	if err != nil {
		t.Fatal(err)
	}
	rig.keyV = commit.NewVector(gr, rig.keyP)
	if _, err := rig.svc.InstallKey(1, rig.keyP.EvalInt(1), rig.keyV); err != nil {
		t.Fatal(err)
	}
	return rig
}

// yieldShapes are the rosters the nonce-accounting tests run on: one
// where a coordinate yields a single nonce (n−2t−f = 1) and one where it
// yields three.
var yieldShapes = [][2]int{{3, 1}, {7, 2}}

// dealAux fabricates one aux session — a sharing per output — and
// installs node 1's shares on the rig's service.
func (r *testRig) dealAux(t *testing.T, sid msg.SessionID) ([]*poly.Poly, []*commit.Vector) {
	t.Helper()
	rng := randutil.NewReader(uint64(sid))
	w := 1
	if !IsBeacon(sid) {
		w = r.svc.yield(AuxWidth(sid))
	}
	ps, vs, shares := make([]*poly.Poly, w), make([]*commit.Vector, w), make([]*big.Int, w)
	for i := range ps {
		p, err := poly.NewRandom(r.gr.Q(), r.svc.cfg.T, rng)
		if err != nil {
			t.Fatal(err)
		}
		ps[i], vs[i], shares[i] = p, commit.NewVector(r.gr, p), p.EvalInt(1)
	}
	r.svc.InstallAux(sid, shares, vs)
	return ps, vs
}

// lastRespTo returns the most recent PartialResp sent to the node.
func (r *testRig) lastRespTo(to msg.NodeID) *PartialResp {
	for i := len(r.sends) - 1; i >= 0; i-- {
		if r.sends[i].to == to {
			if resp, ok := r.sends[i].body.(*PartialResp); ok {
				return resp
			}
		}
	}
	return nil
}

func TestInstallKeyValidation(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	// Session IDs must fit the 24-bit aux derivation range.
	if _, err := rig.svc.InstallKey(1<<24, rig.keyP.EvalInt(1), rig.keyV); err == nil {
		t.Fatal("25-bit key session accepted")
	}
	// A share that fails the commitment check is rejected.
	bad := new(big.Int).Add(rig.keyP.EvalInt(1), big.NewInt(1))
	if _, err := rig.svc.InstallKey(2, bad, rig.keyV); err == nil {
		t.Fatal("bad share accepted")
	}
	if _, err := rig.svc.InstallKey(2, nil, rig.keyV); err == nil {
		t.Fatal("nil share accepted")
	}
}

// TestIdleKeyHoldsNoPresizedRing: CacheSize bounds how far a key's
// result and partial caches may grow; it is not memory every installed
// key pays up front. At CacheSize 2²⁰ two pre-sized maps would come to
// well over 64 MiB per key.
func TestIdleKeyHoldsNoPresizedRing(t *testing.T) {
	rig := newTestRig(t, 3, 1, func(c *Config) { c.CacheSize = 1 << 20 })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := msg.SessionID(2); id < 10; id++ {
		if _, err := rig.svc.InstallKey(id, rig.keyP.EvalInt(1), rig.keyV); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("installing 8 idle keys allocated %d MiB", grew>>20)
	}
}

// TestSignProvisionAndServe walks the full aggregator path by hand:
// activation provisions the reservoir via Submit+Prepare, InstallAux
// unblocks the queued request, self + one peer partial reach t+1=2,
// and the combined signature verifies.
func TestSignProvisionAndServe(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	message := []byte("threshold me")

	var got Result
	var gotErr error
	called := false
	if err := rig.svc.Sign(1, message, func(r Result, err error) {
		got, gotErr, called = r, err, true
	}); err != nil {
		t.Fatal(err)
	}

	// Activation must have submitted nonce sessions locally and
	// broadcast a Prepare to both peers.
	if len(rig.submitted) == 0 {
		t.Fatal("no aux sessions submitted on activation")
	}
	prepTo := map[msg.NodeID]bool{}
	for _, s := range rig.sends {
		if _, ok := s.body.(*Prepare); ok {
			prepTo[s.to] = true
		}
	}
	if !prepTo[2] || !prepTo[3] {
		t.Fatalf("Prepare not broadcast to peers: %v", prepTo)
	}
	if called {
		t.Fatal("request completed with no nonce installed")
	}

	// Complete the first owned nonce session; the queued request
	// dispatches: self partial plus a PartialReq to t+1 peers.
	sid := NonceSID(1, 1, 0)
	auxPs, auxVs := rig.dealAux(t, sid)
	auxP, auxV := auxPs[0], auxVs[0]
	var preq *PartialReq
	for _, s := range rig.sends {
		if pr, ok := s.body.(*PartialReq); ok {
			preq = pr
		}
	}
	if preq == nil {
		t.Fatal("no PartialReq fanned out after InstallAux")
	}
	if len(preq.Items) != 1 || preq.Items[0].Sid != sid || preq.Items[0].Op != OpSign {
		t.Fatalf("unexpected PartialReq: %+v", preq.Items)
	}

	// Play peer 2: compute its partial from the dealt shares.
	c := thresh.Challenge(rig.gr, auxV.PublicKey(), rig.keyV.PublicKey(), message)
	p2 := thresh.PartialSignPre(rig.gr, 2, rig.keyP.EvalInt(2), auxP.EvalInt(2), c)
	rig.svc.HandleMessage(2, &PartialResp{Key: 1, Items: []RespItem{
		{Digest: preq.Items[0].Digest, Status: StOK, Sigma: p2.Sigma},
	}})

	if !called {
		t.Fatal("request did not complete at t+1 partials")
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !thresh.Verify(rig.gr, rig.keyV.PublicKey(), message, got.Sig) {
		t.Fatal("combined signature does not verify")
	}

	// The nonce share must be consumed on the serving side too.
	st := rig.svc.Stats()
	if st.Batches != 1 || st.Items != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestNonceConsumeOnce pins the core safety invariant: once a nonce
// session served one digest, the same digest replays from the partial
// cache and any other digest is refused.
func TestNonceConsumeOnce(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	message := []byte("first")
	if err := rig.svc.Sign(1, message, func(Result, error) {}); err != nil {
		t.Fatal(err)
	}
	sid := NonceSID(1, 1, 0)
	rig.dealAux(t, sid)
	digest := SignDigest(1, message)

	// Peer 3 asks for the digest the service already self-signed: the
	// cached partial is replayed bit-for-bit.
	rig.svc.HandleMessage(3, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: digest, Op: OpSign, Sid: sid, Payload: message},
	}})
	resp := rig.lastRespTo(3)
	if resp == nil || resp.Items[0].Status != StOK || resp.Items[0].Sigma == nil {
		t.Fatalf("cached partial not replayed: %+v", resp)
	}
	if rig.svc.Stats().PeerCacheHits == 0 {
		t.Fatal("replay did not count as a cache hit")
	}

	// A different digest under the consumed nonce is refused — this is
	// the nonce-reuse attack surface.
	other := []byte("second")
	rig.svc.HandleMessage(3, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: SignDigest(1, other), Op: OpSign, Sid: sid, Payload: other},
	}})
	resp = rig.lastRespTo(3)
	if resp.Items[0].Status != StRefused {
		t.Fatalf("consumed nonce re-served: status %d", resp.Items[0].Status)
	}
	if resp.Items[0].Sigma != nil {
		t.Fatal("refused item carried a partial")
	}
}

func TestPartialReqErrorStatuses(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)

	// Unknown key.
	rig.svc.HandleMessage(2, &PartialReq{Key: 999, Items: []ReqItem{
		{Digest: [32]byte{1}, Op: OpSign, Sid: NonceSID(999, 2, 0)},
	}})
	if resp := rig.lastRespTo(2); resp == nil || resp.Items[0].Status != StUnknownKey {
		t.Fatalf("unknown key not reported: %+v", resp)
	}

	// Nonce session not completed here yet.
	rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: [32]byte{2}, Op: OpSign, Sid: NonceSID(1, 2, 7)},
	}})
	if resp := rig.lastRespTo(2); resp.Items[0].Status != StNotReady {
		t.Fatalf("missing aux session not NotReady: %+v", resp.Items[0])
	}

	// Bogus op code.
	rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: [32]byte{3}, Op: 99},
	}})
	if resp := rig.lastRespTo(2); resp.Items[0].Status != StBadOp {
		t.Fatalf("bad op not rejected: %+v", resp.Items[0])
	}

	// Garbage decrypt payload.
	rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: [32]byte{4}, Op: OpDecrypt, Payload: []byte{1, 2, 3}},
	}})
	if resp := rig.lastRespTo(2); resp.Items[0].Status != StBadOp {
		t.Fatalf("garbage ciphertext not rejected: %+v", resp.Items[0])
	}
}

func TestPrepareSubmitsIdempotently(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	sids := []msg.SessionID{NonceSID(1, 2, 0), BeaconSID(1, 1)}
	rig.svc.HandleMessage(2, &Prepare{Key: 1, Sids: sids})
	if len(rig.submitted) != 2 {
		t.Fatalf("submitted %d sessions, want 2", len(rig.submitted))
	}
	// A duplicate Prepare (another aggregator, a retry) is a no-op.
	rig.svc.HandleMessage(3, &Prepare{Key: 1, Sids: sids})
	if len(rig.submitted) != 2 {
		t.Fatalf("duplicate Prepare re-submitted: %v", rig.submitted)
	}
	// Non-aux session IDs are never submitted.
	rig.svc.HandleMessage(2, &Prepare{Key: 1, Sids: []msg.SessionID{5}})
	if len(rig.submitted) != 2 {
		t.Fatal("non-aux sid submitted")
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	rig := newTestRig(t, 3, 1, func(cfg *Config) {
		cfg.Rate = 1
		cfg.Burst = 1
		cfg.Now = func() time.Time { return now }
		cfg.Provision = func(msg.SessionID, []msg.SessionID) {} // keep requests queued
	})
	cb := func(Result, error) {}
	if err := rig.svc.Sign(1, []byte("m1"), cb); err != nil {
		t.Fatal(err)
	}
	err := rig.svc.Sign(1, []byte("m2"), cb)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("burst exceeded but not shed: %v", err)
	}
	if rig.svc.Stats().Shed != 1 {
		t.Fatalf("stats: %+v", rig.svc.Stats())
	}
	// One second refills one token.
	now = now.Add(time.Second)
	if err := rig.svc.Sign(1, []byte("m2"), cb); err != nil {
		t.Fatalf("refilled token not granted: %v", err)
	}
}

func TestAdmissionPendingBound(t *testing.T) {
	rig := newTestRig(t, 3, 1, func(cfg *Config) {
		cfg.MaxPending = 2
		cfg.MaxBatch = 64
		cfg.Provision = func(msg.SessionID, []msg.SessionID) {} // keep requests queued
	})
	cb := func(Result, error) {}
	if err := rig.svc.Sign(1, []byte("a"), cb); err != nil {
		t.Fatal(err)
	}
	if err := rig.svc.Sign(1, []byte("b"), cb); err != nil {
		t.Fatal(err)
	}
	if err := rig.svc.Sign(1, []byte("c"), cb); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue overflow not shed: %v", err)
	}
	// A duplicate of a queued request coalesces instead of being shed.
	if err := rig.svc.Sign(1, []byte("a"), cb); err != nil {
		t.Fatalf("duplicate digest shed: %v", err)
	}
	if rig.svc.Stats().Coalesced != 1 {
		t.Fatalf("stats: %+v", rig.svc.Stats())
	}
}

func TestRetireLifecycle(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	info, ok := rig.svc.KeyInfo(1)
	if !ok || info.State != StateReady {
		t.Fatalf("fresh key state: %+v", info)
	}
	rig.svc.Activate(1)
	if info, _ = rig.svc.KeyInfo(1); info.State != StateServing {
		t.Fatalf("activated key state: %v", info.State)
	}
	rig.svc.Retire(1)
	if info, _ = rig.svc.KeyInfo(1); info.State != StateRetiring {
		t.Fatalf("retired key state: %v", info.State)
	}
	if err := rig.svc.Sign(1, []byte("x"), func(Result, error) {}); !errors.Is(err, ErrRetiring) {
		t.Fatalf("retiring key accepted a request: %v", err)
	}
	// Peer partials are still served so other aggregators can finish.
	sid := NonceSID(1, 2, 0)
	rig.dealAux(t, sid)
	rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: [32]byte{9}, Op: OpSign, Sid: sid, Payload: []byte("peer msg")},
	}})
	if resp := rig.lastRespTo(2); resp == nil || resp.Items[0].Status != StOK {
		t.Fatalf("retiring key stopped serving partials: %+v", resp)
	}
}

func TestCloseFailsPending(t *testing.T) {
	rig := newTestRig(t, 3, 1, func(cfg *Config) {
		cfg.Provision = func(msg.SessionID, []msg.SessionID) {}
	})
	var gotErr error
	called := false
	if err := rig.svc.Sign(1, []byte("m"), func(_ Result, err error) {
		gotErr, called = err, true
	}); err != nil {
		t.Fatal(err)
	}
	rig.svc.Close()
	if !called || !errors.Is(gotErr, ErrClosed) {
		t.Fatalf("pending request not failed on close: called=%v err=%v", called, gotErr)
	}
	if err := rig.svc.Sign(1, []byte("n"), func(Result, error) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed service accepted a request: %v", err)
	}
}

func TestSignRejectsUnknownKey(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	if err := rig.svc.Sign(42, []byte("m"), func(Result, error) {}); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key accepted: %v", err)
	}
	if err := rig.svc.Beacon(1, 0, func(Result, error) {}); err == nil {
		t.Fatal("beacon round 0 accepted")
	}
}

// nonceBooks reads a key's nonce accounting.
func (r *testRig) nonceBooks(t *testing.T) KeySnapshot {
	t.Helper()
	for _, k := range r.svc.KeysSnapshot() {
		if k.ID == 1 {
			return k
		}
	}
	t.Fatal("key 1 not installed")
	return KeySnapshot{}
}

// TestNonceWidthSlowStart walks a fresh key through its first Sign,
// counting in e, the nonces a width-1 session yields. Two width-1
// sessions are provisioned on the request, a third when the flush finds
// it starved, and only then does the width double; the refill that
// follows is one width-2 session. The key that has served one signature
// has 5e−1 nonces left, counting those still being generated — whether
// or not retry timers flushed the waiting request in between, because
// width follows arrivals, not timers.
func TestNonceWidthSlowStart(t *testing.T) {
	for _, shape := range yieldShapes {
		for _, reflush := range []bool{false, true} {
			rig := newTestRig(t, shape[0], shape[1], nil)
			e := uint64(rig.svc.rows)
			if err := rig.svc.Sign(1, []byte("first"), func(Result, error) {}); err != nil {
				t.Fatal(err)
			}
			rig.svc.Flush(1)
			want := []msg.SessionID{NonceSID(1, 1, 0), NonceSID(1, 1, e), NonceSID(1, 1, 2*e), NonceSessionSID(1, 1, 3*e, 2)}
			if b := rig.nonceBooks(t); len(rig.submitted) != 3 || b.NonceWidth != 2 || b.NonceYield != 2*int(e) || b.Provisioning != 3*int(e) {
				t.Fatalf("e=%d first flush: %d sessions, books %+v", e, len(rig.submitted), b)
			}
			if reflush {
				for i := 0; i < 3; i++ {
					rig.svc.Flush(1)
					rig.svc.Kick(1)
				}
				if b := rig.nonceBooks(t); b.NonceWidth != 2 {
					t.Fatalf("re-flushing one waiting request moved the width: %+v", b)
				}
			}
			// The first session lands and the request takes one of its nonces.
			rig.dealAux(t, want[0])
			if len(rig.submitted) != len(want) {
				t.Fatalf("e=%d reflush=%v: submitted %x, want %x", e, reflush, rig.submitted, want)
			}
			for i, sid := range rig.submitted {
				if sid != want[i] {
					t.Fatalf("e=%d reflush=%v: submitted %x, want %x", e, reflush, rig.submitted, want)
				}
			}
			if b := rig.nonceBooks(t); b.Reservoir+b.Provisioning != 5*int(e)-1 || b.Inflight != 1 {
				t.Fatalf("e=%d reflush=%v: a key that served one Sign holds %d nonces (books %+v), want %d", e, reflush, b.Reservoir+b.Provisioning, b, 5*e-1)
			}
		}
	}
}

// TestNonceWidthFollowsDemand: while arriving requests keep finding the
// reservoir empty the width doubles, up to 16, and the stock kept is two
// sessions' yield.
func TestNonceWidthFollowsDemand(t *testing.T) {
	for _, shape := range yieldShapes {
		rig := newTestRig(t, shape[0], shape[1], func(cfg *Config) { cfg.MaxBatch = 1 })
		for i, wantWidth := range []int{2, 4, 8, 16, 16, 16} {
			if err := rig.svc.Sign(1, []byte{byte(i)}, func(Result, error) {}); err != nil {
				t.Fatal(err)
			}
			if b := rig.nonceBooks(t); b.NonceWidth != wantWidth {
				t.Fatalf("after %d starved arrivals: width %d, want %d", i+1, b.NonceWidth, wantWidth)
			}
		}
		b := rig.nonceBooks(t)
		if b.NonceYield != 16*rig.svc.rows || b.Provisioning < b.QueueDepth+2*b.NonceYield {
			t.Fatalf("stock %d for %d waiting requests at width 16, yield %d", b.Provisioning, b.QueueDepth, b.NonceYield)
		}
		last := rig.submitted[len(rig.submitted)-1]
		if AuxWidth(last) != 16 {
			t.Fatalf("last session %x has width %d", uint64(last), AuxWidth(last))
		}
		// Sessions tile the counter space without overlap.
		next := uint64(0)
		for _, sid := range rig.submitted {
			if NonceCounter(sid) != next {
				t.Fatalf("session %x starts at counter %d, want %d", uint64(sid), NonceCounter(sid), next)
			}
			next += uint64(rig.svc.yield(AuxWidth(sid)))
		}
	}
}

// TestBatchConsumeOncePerNonce: one width-16 session installs its whole
// yield of nonces (16, or 48 at three rows), each of which serves exactly
// one digest — a second digest against any of the ids is refused, and a
// re-ask for the digest it served replays the recorded partial.
func TestBatchConsumeOncePerNonce(t *testing.T) {
	for _, shape := range yieldShapes {
		rig := newTestRig(t, shape[0], shape[1], nil)
		yield := uint64(rig.svc.yield(16))
		session := NonceSessionSID(1, 2, 32, 16)
		_, vs := rig.dealAux(t, session)
		ask := func(id msg.SessionID, message []byte) RespItem {
			rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{
				{Digest: SignDigest(1, message), Op: OpSign, Sid: id, Payload: message},
			}})
			return rig.lastRespTo(2).Items[0]
		}
		// The session's own id names its first nonce only as a nonce, and
		// ids outside the block were never installed.
		if it := ask(session, []byte("by session id")); it.Status != StNotReady {
			t.Fatalf("session id answered as a nonce: status %d", it.Status)
		}
		for _, ctr := range []uint64{31, 32 + yield} {
			if it := ask(NonceSID(1, 2, ctr), []byte("outside")); it.Status != StNotReady {
				t.Fatalf("nonce %d outside the block answered: status %d", ctr, it.Status)
			}
		}
		sigmas := map[string]bool{}
		for i := uint64(0); i < yield; i++ {
			id, message := NonceSID(1, 2, 32+i), []byte{'m', byte(i)}
			first := ask(id, message)
			if first.Status != StOK || first.Sigma == nil {
				t.Fatalf("nonce %d not served: %+v", i, first)
			}
			// The partial is this node's share of nonce i, not of another.
			if !thresh.VerifyPartial(rig.gr, rig.keyV, vs[i], message, thresh.PartialSig{Signer: 1, Sigma: first.Sigma}) {
				t.Fatalf("nonce %d: partial does not verify against its commitment", i)
			}
			sigmas[first.Sigma.String()] = true
			if again := ask(id, message); again.Status != StOK || again.Sigma.Cmp(first.Sigma) != 0 {
				t.Fatalf("nonce %d: re-ask did not replay the partial: %+v", i, again)
			}
			if other := ask(id, []byte{'x', byte(i)}); other.Status != StRefused || other.Sigma != nil {
				t.Fatalf("nonce %d served a second digest: %+v", i, other)
			}
		}
		if uint64(len(sigmas)) != yield {
			t.Fatalf("%d distinct partials from %d nonces", len(sigmas), yield)
		}
		// Installing the session again re-arms nothing.
		rig.dealAux(t, session)
		if it := ask(NonceSID(1, 2, 32), []byte("again")); it.Status != StRefused {
			t.Fatalf("re-installed session re-armed a spent nonce: status %d", it.Status)
		}
	}
}

// TestInstallAuxRejectsWrongShape: what a session installs must match
// the width its id names.
func TestInstallAuxRejectsWrongShape(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	p, _ := poly.NewRandom(rig.gr.Q(), 1, randutil.NewReader(9))
	share, v := p.EvalInt(1), commit.NewVector(rig.gr, p)
	rig.svc.InstallAux(NonceSessionSID(1, 2, 0, 2), []*big.Int{share}, []*commit.Vector{v})
	rig.svc.InstallAux(NonceSID(1, 2, 0), []*big.Int{share, share}, []*commit.Vector{v, v})
	rig.svc.InstallAux(BeaconSID(1, 1)|1<<widthShift, []*big.Int{share}, []*commit.Vector{v})
	rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: [32]byte{1}, Op: OpSign, Sid: NonceSID(1, 2, 0), Payload: []byte("m")},
		{Digest: [32]byte{2}, Op: OpOpen, Sid: BeaconSID(1, 1)},
	}})
	for _, it := range rig.lastRespTo(2).Items {
		if it.Status != StNotReady {
			t.Fatalf("mis-shaped install was accepted: %+v", it)
		}
	}
}

// TestNonceCounterExhausted: the 24-bit nonce counter does not wrap.
// Once the next session's block — its yield, not its width — would run
// past it, Sign says so instead of re-deriving ids every node has
// already buried.
func TestNonceCounterExhausted(t *testing.T) {
	for _, shape := range yieldShapes {
		rig := newTestRig(t, shape[0], shape[1], nil)
		e := uint64(rig.svc.rows)
		// An earlier incarnation's last session, of width 4, ended four
		// width-1 sessions short of the counter's end.
		rig.svc.ResumeNonces(NonceSessionSID(1, 1, 1<<24-8*e, 4))
		rig.svc.ResumeNonces(NonceSID(1, 2, 1<<24-e)) // another node's: ignored
		rig.svc.ResumeNonces(BeaconSID(1, 1<<24-1))   // not a nonce session: ignored
		cb := func(Result, error) {}
		if err := rig.svc.Sign(1, []byte("a"), cb); err != nil {
			t.Fatalf("four sessions' counters left: %v", err)
		}
		// Two sessions for the stock, one for the starved request, and the
		// width doubles to 2 with one width-1 session's counters left: not
		// enough for a block.
		rig.svc.Flush(1)
		for i, sid := range rig.submitted {
			if want := NonceSID(1, 1, 1<<24-4*e+uint64(i)*e); sid != want {
				t.Fatalf("e=%d session %d: %x, want %x", e, i, uint64(sid), uint64(want))
			}
		}
		if len(rig.submitted) != 3 {
			t.Fatalf("e=%d: %d sessions submitted, want 3", e, len(rig.submitted))
		}
		if err := rig.svc.Sign(1, []byte("b"), cb); !errors.Is(err, ErrNoncesExhausted) {
			t.Fatalf("e=%d: Sign past the counter's end: %v", e, err)
		}
		// What is already signed or queued is unaffected, and so are the
		// operations that use no nonce.
		if err := rig.svc.Sign(1, []byte("a"), cb); err != nil {
			t.Fatalf("duplicate of a queued request: %v", err)
		}
		if err := rig.svc.Beacon(1, 1, cb); err != nil {
			t.Fatalf("beacon on an exhausted key: %v", err)
		}
		for _, sid := range rig.submitted {
			if !IsBeacon(sid) && NonceCounter(sid) < 1<<24-4*e {
				t.Fatalf("counter wrapped: session %x", uint64(sid))
			}
		}
	}
}

// TestProvisionPerOperationKind: a key starts the auxiliary sessions of
// the operations it is asked for, and no others.
func TestProvisionPerOperationKind(t *testing.T) {
	kinds := func(sids []msg.SessionID) (nonces, beacons int) {
		for _, sid := range sids {
			if IsBeacon(sid) {
				beacons++
			} else {
				nonces++
			}
		}
		return nonces, beacons
	}
	cb := func(Result, error) {}

	rig := newTestRig(t, 3, 1, nil)
	ct, err := thresh.Encrypt(rig.gr, rig.keyV.PublicKey(), rig.gr.GExp(big.NewInt(7)), randutil.NewReader(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.svc.Decrypt(1, ct, cb); err != nil {
		t.Fatal(err)
	}
	rig.svc.Flush(1)
	if info, _ := rig.svc.KeyInfo(1); len(rig.submitted) != 0 || info.State != StateServing {
		t.Fatalf("decrypt: %d sessions submitted, state %v", len(rig.submitted), info.State)
	}
	if err := rig.svc.Beacon(1, 1, cb); err != nil {
		t.Fatal(err)
	}
	if n, b := kinds(rig.submitted); n != 0 || b == 0 {
		t.Fatalf("beacon: %d nonce and %d beacon sessions", n, b)
	}
	rig.submitted = nil
	if err := rig.svc.Sign(1, []byte("m"), cb); err != nil {
		t.Fatal(err)
	}
	if n, b := kinds(rig.submitted); n == 0 || b != 0 {
		t.Fatalf("sign: %d nonce and %d beacon sessions", n, b)
	}

	eager := newTestRig(t, 3, 1, nil)
	eager.svc.Activate(1)
	if n, b := kinds(eager.submitted); n != 2 || b != 2 {
		t.Fatalf("activate: %d nonce and %d beacon sessions, want 2 and 2", n, b)
	}
}
