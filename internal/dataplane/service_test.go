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
	issued    uint64 // nonce pairs the test has drawn for hand-played peers
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

// peerPairs are the nonce pairs a hand-played peer issued to the rig's
// node, by ID.
type peerPairs map[uint64]*thresh.NoncePair

// issue plays peer j handing the rig's node count fresh commitments,
// and returns the pairs behind them.
func (r *testRig) issue(t *testing.T, j msg.NodeID, count int) peerPairs {
	t.Helper()
	pairs := make(peerPairs, count)
	var list []thresh.Commitment
	for i := 0; i < count; i++ {
		r.issued++
		pair, err := thresh.NewNoncePair(r.gr, j, uint64(j)<<32|r.issued, r.keyP.EvalInt(int64(j)), randutil.NewReader(r.issued))
		if err != nil {
			t.Fatal(err)
		}
		pairs[pair.ID] = pair
		list = append(list, pair.Commitment)
	}
	r.svc.HandleMessage(j, &PartialResp{Key: 1, Commits: thresh.EncodeCommitments(r.gr, list)})
	return pairs
}

// lastReqTo returns the most recent PartialReq sent to the node.
func (r *testRig) lastReqTo(to msg.NodeID) *PartialReq {
	for i := len(r.sends) - 1; i >= 0; i-- {
		if r.sends[i].to == to {
			if req, ok := r.sends[i].body.(*PartialReq); ok {
				return req
			}
		}
	}
	return nil
}

// signAnswer is peer j's honest answer to one sign item, made with the
// pairs it issued: z under its entry of the item's commitment list.
func (r *testRig) signAnswer(t *testing.T, j msg.NodeID, pairs peerPairs, it ReqItem) RespItem {
	t.Helper()
	list, err := thresh.ParseCommitments(it.B)
	if err != nil {
		t.Fatal(err)
	}
	own := -1
	for i := range list {
		if err := list[i].Decode(r.gr); err != nil {
			t.Fatal(err)
		}
		if list[i].Signer == j {
			own = i
		}
	}
	if own < 0 || pairs[list[own].ID] == nil {
		t.Fatalf("peer %d asked under a pair it never issued", j)
	}
	bind, err := thresh.Bind(r.gr, r.keyV.PublicKey(), it.Payload, it.B, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	z, err := bind.Sign(r.gr, own, pairs[list[own].ID], r.keyP.EvalInt(int64(j)))
	if err != nil {
		t.Fatal(err)
	}
	return RespItem{Digest: it.Digest, Status: StOK, Sigma: z, Nonce: list[own].ID}
}

// answerSigns plays peer j answering every sign item of the latest
// PartialReq the rig sent it; tamper, if set, edits each answer.
func (r *testRig) answerSigns(t *testing.T, j msg.NodeID, pairs peerPairs, tamper func(*RespItem)) {
	t.Helper()
	req := r.lastReqTo(j)
	if req == nil {
		t.Fatalf("no PartialReq sent to %d", j)
	}
	resp := &PartialResp{Key: 1}
	for _, it := range req.Items {
		out := r.signAnswer(t, j, pairs, it)
		if tamper != nil {
			tamper(&out)
		}
		resp.Items = append(resp.Items, out)
	}
	r.svc.HandleMessage(j, resp)
}

// askRig plays aggregator agg: it fetches want commitments from the
// rig's node (want 0: none) and returns those the rig issued.
func (r *testRig) askRig(t *testing.T, agg msg.NodeID, want uint32) []thresh.Commitment {
	t.Helper()
	r.svc.HandleMessage(agg, &PartialReq{Key: 1, Want: want})
	out, err := thresh.ParseCommitments(r.lastRespTo(agg).Commits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if err := out[i].Decode(r.gr); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// signItem builds aggregator agg's sign item for message over the rig's
// commitment c and a fresh pair of agg's own (t = 1).
func (r *testRig) signItem(t *testing.T, agg msg.NodeID, c thresh.Commitment, message []byte) ReqItem {
	t.Helper()
	r.issued++
	own, err := thresh.NewNoncePair(r.gr, agg, r.issued, r.keyP.EvalInt(int64(agg)), randutil.NewReader(r.issued))
	if err != nil {
		t.Fatal(err)
	}
	list := []thresh.Commitment{c, own.Commitment}
	if agg < c.Signer {
		list[0], list[1] = list[1], list[0]
	}
	return ReqItem{Digest: SignDigest(1, message), Op: OpSign, Payload: message, B: thresh.EncodeCommitments(r.gr, list)}
}

// ask sends the rig one item from aggregator agg and returns its answer.
func (r *testRig) ask(agg msg.NodeID, it ReqItem) RespItem {
	r.svc.HandleMessage(agg, &PartialReq{Key: 1, Items: []ReqItem{it}})
	return r.lastRespTo(agg).Items[0]
}

// dealBeacon fabricates one beacon round session and installs node 1's
// share on the rig's service.
func (r *testRig) dealBeacon(t *testing.T, sid msg.SessionID) {
	t.Helper()
	p, err := poly.NewRandom(r.gr.Q(), r.svc.cfg.T, randutil.NewReader(uint64(sid)))
	if err != nil {
		t.Fatal(err)
	}
	r.svc.InstallAux(sid, []*big.Int{p.EvalInt(1)}, []*commit.Vector{commit.NewVector(r.gr, p)})
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
// the first Sign asks every peer for commitments and starts no session,
// the request dispatches once a peer's commitments arrive, self plus
// that peer reach t+1=2, and the sum verifies.
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
	if len(rig.submitted) != 0 {
		t.Fatalf("signing submitted sessions %x", rig.submitted)
	}
	for _, p := range []msg.NodeID{2, 3} {
		if req := rig.lastReqTo(p); req == nil || req.Want != startBatch || len(req.Items) != 0 {
			t.Fatalf("peer %d was not asked for a starting batch: %+v", p, req)
		}
	}
	rig.svc.Flush(1)
	if called || rig.svc.Stats().Batches != 0 {
		t.Fatal("request dispatched with no commitment booked")
	}

	// Peer 2's commitments land; the waiting request goes to peer 2.
	pairs := rig.issue(t, 2, 4)
	req := rig.lastReqTo(2)
	if len(req.Items) != 1 || req.Items[0].Op != OpSign || string(req.Items[0].Payload) != string(message) {
		t.Fatalf("unexpected PartialReq: %+v", req)
	}
	raws, err := thresh.ParseCommitments(req.Items[0].B)
	if err != nil || len(raws) != 2 || raws[0].Signer != 1 || raws[1].Signer != 2 {
		t.Fatalf("commitment list %+v (%v), want nodes 1 and 2", raws, err)
	}
	rig.answerSigns(t, 2, pairs, nil)
	if !called {
		t.Fatal("request did not complete at t+1 answers")
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !thresh.Verify(rig.gr, rig.keyV.PublicKey(), message, got.Sig) {
		t.Fatal("combined signature does not verify")
	}
	if st := rig.svc.Stats(); st.Batches != 1 || st.Items != 1 || st.SignAttempts != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if ks := rig.svc.KeysSnapshot(); ks[0].Commitments != 3 {
		t.Fatalf("books hold %d commitments, want the 3 unused", ks[0].Commitments)
	}
}

// TestNonceConsumeOnce pins the core safety invariant on the signer's
// side: a pair answers one (m, B). A re-ask of the same (m, B) replays
// the answer bit for bit; another message, or another list, under the
// spent pair is refused.
func TestNonceConsumeOnce(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	cs := rig.askRig(t, 2, 2)
	if len(cs) != 2 || cs[0].Signer != 1 || cs[0].ID == cs[1].ID {
		t.Fatalf("rig issued %+v", cs)
	}
	message := []byte("first")
	item := rig.signItem(t, 2, cs[0], message)
	first := rig.ask(2, item)
	if first.Status != StOK || first.Sigma == nil || first.Nonce != cs[0].ID {
		t.Fatalf("fresh pair not answered: %+v", first)
	}
	// Answering spent the pair and issued its replacement.
	if raws, _ := thresh.ParseCommitments(rig.lastRespTo(2).Commits); len(raws) != 1 {
		t.Fatalf("answer carried %d fresh commitments, want 1", len(raws))
	}
	again := rig.ask(2, item)
	if again.Status != StOK || again.Sigma.Cmp(first.Sigma) != 0 {
		t.Fatalf("re-ask not replayed: %+v", again)
	}
	if rig.svc.Stats().PeerCacheHits != 1 {
		t.Fatal("replay did not count as a cache hit")
	}
	// The nonce-reuse attack surface: the same pair under another message
	// or another commitment list.
	for _, other := range []ReqItem{
		rig.signItem(t, 2, cs[0], []byte("second")),
		rig.signItem(t, 2, cs[0], message),
	} {
		if resp := rig.ask(2, other); resp.Status != StRefused || resp.Sigma != nil {
			t.Fatalf("spent pair answered again: %+v", resp)
		}
	}
	if ledger := rig.svc.NonceLedger(); len(ledger) != 1 {
		t.Fatalf("ledger %v, want the one spent pair", ledger)
	}
}

func TestPartialReqErrorStatuses(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	cs := rig.askRig(t, 2, 1)

	// Unknown key.
	rig.svc.HandleMessage(2, &PartialReq{Key: 999, Items: []ReqItem{
		{Digest: [32]byte{1}, Op: OpSign, Payload: []byte("m")},
	}})
	if resp := rig.lastRespTo(2); resp == nil || resp.Items[0].Status != StUnknownKey {
		t.Fatalf("unknown key not reported: %+v", resp)
	}

	// A pair the rig never issued, one issued to another aggregator, and
	// one whose points are not as issued.
	forged := cs[0]
	forged.ID++
	if it := rig.ask(2, rig.signItem(t, 2, forged, []byte("m"))); it.Status != StRefused {
		t.Fatalf("unissued pair not refused: %+v", it)
	}
	if it := rig.ask(3, rig.signItem(t, 3, cs[0], []byte("m"))); it.Status != StRefused {
		t.Fatalf("another aggregator's pair not refused: %+v", it)
	}
	swapped := cs[0]
	swapped.D, swapped.E = cs[0].E, cs[0].D
	if it := rig.ask(2, rig.signItem(t, 2, thresh.Commitment{Signer: 1, ID: cs[0].ID, D: swapped.D, E: swapped.E}, []byte("m"))); it.Status != StRefused {
		t.Fatalf("altered commitment not refused: %+v", it)
	}
	// A list that does not name the rig, or names too few signers.
	if it := rig.ask(2, ReqItem{Digest: [32]byte{5}, Op: OpSign, Payload: []byte("m"), B: []byte{0, 0, 0, 0}}); it.Status != StBadOp {
		t.Fatalf("empty commitment list not rejected: %+v", it)
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
	// After all that, the untouched pair still signs.
	if it := rig.ask(2, rig.signItem(t, 2, cs[0], []byte("m"))); it.Status != StOK {
		t.Fatalf("issued pair not answered: %+v", it)
	}
}

func TestPrepareSubmitsIdempotently(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	sids := []msg.SessionID{BeaconSID(1, 1), BeaconSID(1, 2)}
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
	cs := rig.askRig(t, 2, 1)
	if it := rig.ask(2, rig.signItem(t, 2, cs[0], []byte("peer msg"))); it.Status != StOK {
		t.Fatalf("retiring key stopped serving partials: %+v", it)
	}
}

func TestCloseFailsPending(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
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

// TestBatchConsumeOncePerNonce: one fetch issues a whole batch of pairs
// to an aggregator, each of which answers exactly one (m, B) — a re-ask
// replays its answer, a second message under it is refused — and every
// answer checks against the rig's public key share.
func TestBatchConsumeOncePerNonce(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	cs := rig.askRig(t, 2, startBatch)
	if len(cs) != startBatch {
		t.Fatalf("asked for %d commitments, got %d", startBatch, len(cs))
	}
	zs := map[string]bool{}
	for i, c := range cs {
		message := []byte{'m', byte(i)}
		item := rig.signItem(t, 2, c, message)
		first := rig.ask(2, item)
		if first.Status != StOK || first.Sigma == nil {
			t.Fatalf("pair %d not served: %+v", i, first)
		}
		list, _ := thresh.ParseCommitments(item.B)
		for j := range list {
			list[j].Decode(rig.gr) //nolint:errcheck // the rig encoded these points itself
		}
		bind, err := thresh.Bind(rig.gr, rig.keyV.PublicKey(), message, item.B, list, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bind.VerifyShare(rig.gr, bind.Index(1), first.Sigma, rig.keyV.Eval(1)) {
			t.Fatalf("pair %d: answer fails its share check", i)
		}
		zs[first.Sigma.String()] = true
		if again := rig.ask(2, item); again.Status != StOK || again.Sigma.Cmp(first.Sigma) != 0 {
			t.Fatalf("pair %d: re-ask did not replay: %+v", i, again)
		}
		if other := rig.ask(2, rig.signItem(t, 2, c, []byte{'x', byte(i)})); other.Status != StRefused || other.Sigma != nil {
			t.Fatalf("pair %d served a second message: %+v", i, other)
		}
	}
	if len(zs) != len(cs) {
		t.Fatalf("%d distinct answers from %d pairs", len(zs), len(cs))
	}
}

// TestInstallAuxRejectsWrongShape: a beacon session installs exactly one
// share, under an id BeaconSID can have produced.
func TestInstallAuxRejectsWrongShape(t *testing.T) {
	rig := newTestRig(t, 3, 1, nil)
	p, _ := poly.NewRandom(rig.gr.Q(), 1, randutil.NewReader(9))
	share, v := p.EvalInt(1), commit.NewVector(rig.gr, p)
	rig.svc.InstallAux(BeaconSID(1, 1), []*big.Int{share, share}, []*commit.Vector{v, v})
	rig.svc.InstallAux(BeaconSID(1, 2)|1<<56, []*big.Int{share}, []*commit.Vector{v})
	rig.svc.InstallAux(BeaconSID(1, 3)&^(1<<61), []*big.Int{share}, []*commit.Vector{v})
	rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{
		{Digest: [32]byte{1}, Op: OpOpen, Sid: BeaconSID(1, 1)},
		{Digest: [32]byte{2}, Op: OpOpen, Sid: BeaconSID(1, 2)},
		{Digest: [32]byte{3}, Op: OpOpen, Sid: BeaconSID(1, 3)},
	}})
	for _, it := range rig.lastRespTo(2).Items {
		if it.Status != StNotReady {
			t.Fatalf("mis-shaped install was accepted: %+v", it)
		}
	}
	rig.dealBeacon(t, BeaconSID(1, 4))
	rig.svc.HandleMessage(2, &PartialReq{Key: 1, Items: []ReqItem{{Digest: [32]byte{4}, Op: OpOpen, Sid: BeaconSID(1, 4)}}})
	if it := rig.lastRespTo(2).Items[0]; it.Status != StOK || it.Share == nil {
		t.Fatalf("well-shaped install not served: %+v", it)
	}
}

// TestProvisionPerOperationKind: a key starts the auxiliary sessions of
// the operations it is asked for, and no others. Signing starts none:
// it asks the peers for commitments.
func TestProvisionPerOperationKind(t *testing.T) {
	fetches := func(r *testRig) int {
		n := 0
		for _, s := range r.sends {
			if req, ok := s.body.(*PartialReq); ok && req.Want > 0 {
				n++
			}
		}
		return n
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
	if info, _ := rig.svc.KeyInfo(1); len(rig.submitted) != 0 || fetches(rig) != 0 || info.State != StateServing {
		t.Fatalf("decrypt: %d sessions submitted, %d fetches, state %v", len(rig.submitted), fetches(rig), info.State)
	}
	if err := rig.svc.Beacon(1, 1, cb); err != nil {
		t.Fatal(err)
	}
	if len(rig.submitted) == 0 || fetches(rig) != 0 {
		t.Fatalf("beacon: %d sessions, %d fetches", len(rig.submitted), fetches(rig))
	}
	rig.submitted = nil
	if err := rig.svc.Sign(1, []byte("m"), cb); err != nil {
		t.Fatal(err)
	}
	if len(rig.submitted) != 0 || fetches(rig) != 2 {
		t.Fatalf("sign: %d sessions, %d fetches, want 0 and 2", len(rig.submitted), fetches(rig))
	}

	eager := newTestRig(t, 3, 1, nil)
	eager.svc.Activate(1)
	if len(eager.submitted) != 2 || fetches(eager) != 2 {
		t.Fatalf("activate: %d beacon sessions and %d fetches, want 2 and 2", len(eager.submitted), fetches(eager))
	}
}
