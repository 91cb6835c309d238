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
	gr := group.Test256()
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

// dealAux fabricates one aux session sharing and installs node 1's
// share on the rig's service.
func (r *testRig) dealAux(t *testing.T, sid msg.SessionID) (*poly.Poly, *commit.Vector) {
	t.Helper()
	rng := randutil.NewReader(uint64(sid))
	p, err := poly.NewRandom(r.gr.Q(), r.svc.cfg.T, rng)
	if err != nil {
		t.Fatal(err)
	}
	v := commit.NewVector(r.gr, p)
	r.svc.InstallAux(sid, p.EvalInt(1), v)
	return p, v
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
	auxP, auxV := rig.dealAux(t, sid)
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
	p, v := rig.dealAux(t, sid)
	_ = p
	_ = v
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
