package vss_test

import (
	"fmt"
	"math/big"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/vss"
)

func TestParamsValidate(t *testing.T) {
	gr := group.Test256()
	tests := []struct {
		name    string
		params  vss.Params
		wantErr bool
	}{
		{name: "minimal", params: vss.Params{Group: gr, N: 1, T: 0, F: 0}},
		{name: "classic 3t+1", params: vss.Params{Group: gr, N: 7, T: 2, F: 0}},
		{name: "hybrid", params: vss.Params{Group: gr, N: 10, T: 2, F: 1, DMax: 3}},
		{name: "nil group", params: vss.Params{N: 4, T: 1}, wantErr: true},
		{name: "bound violated", params: vss.Params{Group: gr, N: 6, T: 2, F: 0}, wantErr: true},
		{name: "bound exact hybrid", params: vss.Params{Group: gr, N: 9, T: 2, F: 1}},
		{name: "bound violated hybrid", params: vss.Params{Group: gr, N: 8, T: 2, F: 1}, wantErr: true},
		{name: "negative t", params: vss.Params{Group: gr, N: 4, T: -1}, wantErr: true},
		{name: "negative dmax", params: vss.Params{Group: gr, N: 4, T: 1, DMax: -1}, wantErr: true},
		{name: "extended missing keys", params: vss.Params{Group: gr, N: 4, T: 1, Extended: true}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.params.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestThresholds(t *testing.T) {
	p := vss.Params{Group: group.Test256(), N: 10, T: 2, F: 1, DMax: 5}
	if got := p.EchoThreshold(); got != 7 { // ceil((10+2+1)/2) = 7
		t.Errorf("EchoThreshold = %d, want 7", got)
	}
	if got := p.ReadyThreshold(); got != 7 { // 10-2-1
		t.Errorf("ReadyThreshold = %d, want 7", got)
	}
	if got := p.HelpTotal(); got != 15 {
		t.Errorf("HelpTotal = %d, want 15", got)
	}
}

func TestNewNodeRejects(t *testing.T) {
	gr := group.Test256()
	params := vss.Params{Group: gr, N: 4, T: 1}
	sess := vss.SessionID{Dealer: 1, Tau: 1}
	sender := nullSender{}
	if _, err := vss.NewNode(params, sess, 0, sender, vss.Options{}); err == nil {
		t.Error("accepted self index 0")
	}
	if _, err := vss.NewNode(params, sess, 5, sender, vss.Options{}); err == nil {
		t.Error("accepted self index out of range")
	}
	if _, err := vss.NewNode(params, vss.SessionID{Dealer: 9, Tau: 1}, 1, sender, vss.Options{}); err == nil {
		t.Error("accepted dealer out of range")
	}
	if _, err := vss.NewNode(params, sess, 1, nil, vss.Options{}); err == nil {
		t.Error("accepted nil sender")
	}
}

type nullSender struct{}

func (nullSender) Send(msg.NodeID, msg.Body) {}

func TestShareSecretGuards(t *testing.T) {
	gr := group.Test256()
	params := vss.Params{Group: gr, N: 4, T: 1}
	sess := vss.SessionID{Dealer: 1, Tau: 1}
	nd, err := vss.NewNode(params, sess, 2, nullSender{}, vss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.ShareSecret(big.NewInt(5), randutil.NewReader(1)); err == nil {
		t.Error("non-dealer could deal")
	}
	dealer, err := vss.NewNode(params, sess, 1, nullSender{}, vss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dealer.ShareSecret(big.NewInt(5), randutil.NewReader(1)); err != nil {
		t.Fatal(err)
	}
	if err := dealer.ShareSecret(big.NewInt(6), randutil.NewReader(2)); err == nil {
		t.Error("dealer could deal twice")
	}
	if err := nd.StartReconstruct(); err == nil {
		t.Error("reconstruct before completion succeeded")
	}
}

// TestShLivenessAndConsistency is the core Fig. 1 conformance test:
// for several (n,t,f) configurations at the resilience bound and a
// range of scheduling seeds, all honest up nodes complete Sh and the
// Consistency property holds with the dealt secret.
func TestShLivenessAndConsistency(t *testing.T) {
	configs := []struct{ n, tt, f int }{
		{4, 1, 0},
		{7, 2, 0},
		{6, 1, 1},
		{10, 2, 1},
		{13, 4, 0},
	}
	for _, cfg := range configs {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("n=%d,t=%d,f=%d,seed=%d", cfg.n, cfg.tt, cfg.f, seed)
			t.Run(name, func(t *testing.T) {
				res, err := harness.RunVSS(harness.VSSOptions{N: cfg.n, T: cfg.tt, F: cfg.f, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.HonestDone(); got != cfg.n {
					t.Fatalf("completed %d/%d", got, cfg.n)
				}
				if err := res.CheckConsistency(true); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWidthLivenessAndConsistency runs a sharing of one secret, the
// only width a sharing has, through every wire configuration: the full
// matrix in every echo, hashed echoes, dedup with compressed matrices
// and signed readies, and unbatched point checks.
func TestWidthLivenessAndConsistency(t *testing.T) {
	modes := []struct {
		name string
		opts harness.VSSOptions
	}{
		{"full-matrix", harness.VSSOptions{}},
		{"hashed", harness.VSSOptions{HashedEcho: true}},
		{"dedup-compressed-extended", harness.VSSOptions{DedupDealings: true, CompressedWire: true, Extended: true}},
		{"unbatched", harness.VSSOptions{HashedEcho: true, DisableBatch: true}},
	}
	for _, mode := range modes {
		t.Run("w1/"+mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.N, opts.T, opts.Seed = 7, 2, 41
			res, err := harness.RunVSS(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.HonestDone() != opts.N {
				t.Fatalf("completed on %d/%d nodes", res.HonestDone(), opts.N)
			}
			if err := res.CheckConsistency(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShMessageComplexity checks the §3 claim: a crash-free execution
// has exactly n send + n² echo + n² ready messages.
func TestShMessageComplexity(t *testing.T) {
	for _, n := range []int{4, 7, 10, 13} {
		tt := (n - 1) / 3
		res, err := harness.RunVSS(harness.VSSOptions{N: n, T: tt, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if got := st.MsgCount[msg.TVSSSend]; got != n {
			t.Errorf("n=%d: send count %d, want %d", n, got, n)
		}
		if got := st.MsgCount[msg.TVSSEcho]; got != n*n {
			t.Errorf("n=%d: echo count %d, want %d", n, got, n*n)
		}
		if got := st.MsgCount[msg.TVSSReady]; got != n*n {
			t.Errorf("n=%d: ready count %d, want %d", n, got, n*n)
		}
	}
}

// TestShWithCrashedNodes: f nodes are down from the start; the
// remaining honest nodes still complete (liveness in the hybrid
// model) and consistency holds.
func TestShWithCrashedNodes(t *testing.T) {
	res, err := harness.RunVSS(harness.VSSOptions{
		N: 10, T: 2, F: 1, Seed: 4,
		CrashedFromStart: []msg.NodeID{7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.HonestDone(); got != 9 {
		t.Fatalf("completed %d, want 9 (all but crashed)", got)
	}
	if err := res.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

// TestShCrashRecovery: a node crashes mid-protocol, recovers, asks
// for help, and completes via retransmissions (Fig. 1 recovery).
func TestShCrashRecovery(t *testing.T) {
	res, err := harness.RunVSS(harness.VSSOptions{
		N: 10, T: 2, F: 1, Seed: 5,
		CrashAt:   map[msg.NodeID]int64{4: 30},
		RecoverAt: map[msg.NodeID]int64{4: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nodes[4].Done() {
		t.Fatal("recovered node did not complete")
	}
	if got := res.HonestDone(); got != 10 {
		t.Fatalf("completed %d, want 10", got)
	}
	if err := res.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
	if res.Stats.MsgCount[msg.TVSSHelp] == 0 {
		t.Error("no help messages despite crash/recovery")
	}
}

// TestShHashedEcho: the hashed-commitment mode completes and spends
// fewer bytes than the full-matrix mode on the same topology.
func TestShHashedEcho(t *testing.T) {
	full, err := harness.RunVSS(harness.VSSOptions{N: 10, T: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := harness.RunVSS(harness.VSSOptions{N: 10, T: 3, Seed: 6, HashedEcho: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := hashed.HonestDone(); got != 10 {
		t.Fatalf("hashed mode completed %d/10", got)
	}
	if err := hashed.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
	if hashed.Stats.TotalBytes >= full.Stats.TotalBytes {
		t.Errorf("hashed bytes %d not below full bytes %d",
			hashed.Stats.TotalBytes, full.Stats.TotalBytes)
	}
}

// TestShExtendedReadyProofs: in extended mode every completing node
// collects n−t−f valid signed readies from distinct signers, and the
// proof verifies against the directory.
func TestShExtendedReadyProofs(t *testing.T) {
	res, err := harness.RunVSS(harness.VSSOptions{N: 7, T: 2, Seed: 7, Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.HonestDone(); got != 7 {
		t.Fatalf("completed %d/7", got)
	}
	want := 7 - 2 // n - t - f
	for id, node := range res.Nodes {
		proof := node.ReadyProof()
		if len(proof) != want {
			t.Fatalf("node %d proof size %d, want %d", id, len(proof), want)
		}
		seen := make(map[msg.NodeID]bool)
		transcript := vss.ReadyTranscript(res.Session, node.Commitment().Hash())
		for _, sr := range proof {
			if seen[sr.Signer] {
				t.Fatalf("node %d proof has duplicate signer %d", id, sr.Signer)
			}
			seen[sr.Signer] = true
			if !res.Directory.Verify(int64(sr.Signer), transcript, sr.Sig) {
				t.Fatalf("node %d proof signature from %d invalid", id, sr.Signer)
			}
		}
	}
}

// TestRecProtocol: after Sh completes, Rec reconstructs the dealt
// secret at every node.
func TestRecProtocol(t *testing.T) {
	res, err := harness.RunVSS(harness.VSSOptions{N: 7, T: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[msg.NodeID]*big.Int)
	_ = recs
	for _, node := range res.Nodes {
		if err := node.StartReconstruct(); err != nil {
			t.Fatal(err)
		}
	}
	res.Net.Run(0)
	want := new(big.Int).Mod(res.Secret, group.Test256().Q())
	for id, node := range res.Nodes {
		got := node.Reconstructed()
		if got == nil {
			t.Fatalf("node %d did not reconstruct", id)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("node %d reconstructed %v, want %v", id, got, want)
		}
	}
}

// byzShareSender injects corrupted Rec shares: a Byzantine node that
// completed Sh honestly but lies during reconstruction.
func TestRecRejectsBadShares(t *testing.T) {
	res, err := harness.RunVSS(harness.VSSOptions{N: 7, T: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 2 are "corrupt": they broadcast garbage shares.
	// The remaining five honest shares still reconstruct correctly.
	gr := group.Test256()
	for _, byz := range []msg.NodeID{1, 2} {
		env := res.Net.Env(byz)
		bad := gr.AddQ(res.Shared[byz].Share, big.NewInt(1))
		for j := 1; j <= 7; j++ {
			env.Send(msg.NodeID(j), &vss.RecShareMsg{Session: res.Session, Share: bad})
		}
	}
	for id, node := range res.Nodes {
		if id == 1 || id == 2 {
			continue
		}
		if err := node.StartReconstruct(); err != nil {
			t.Fatal(err)
		}
	}
	res.Net.Run(0)
	want := new(big.Int).Mod(res.Secret, gr.Q())
	for id, node := range res.Nodes {
		if id == 1 || id == 2 {
			continue
		}
		got := node.Reconstructed()
		if got == nil {
			t.Fatalf("node %d did not reconstruct", id)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("node %d reconstructed %v despite bad shares, want %v", id, got, want)
		}
	}
}

// equivocatingDealer deals two different secrets to two halves of the
// cluster. Safety demands that honest nodes never complete with
// conflicting commitments (they may or may not complete at all —
// liveness is only promised for honest dealers).
type equivocatingDealer struct {
	env    *simnet.Env
	n, t   int
	gr     *group.Group
	seed   uint64
	dealt  bool
	sessID vss.SessionID
}

func (d *equivocatingDealer) HandleMessage(msg.NodeID, msg.Body) {}
func (d *equivocatingDealer) HandleTimer(uint64)                 {}
func (d *equivocatingDealer) HandleRecover()                     {}

func (d *equivocatingDealer) deal() {
	r := randutil.NewReader(d.seed)
	f1, _ := poly.NewRandomSymmetric(d.gr.Q(), big.NewInt(111), d.t, r)
	f2, _ := poly.NewRandomSymmetric(d.gr.Q(), big.NewInt(222), d.t, r)
	c1 := commit.NewMatrix(d.gr, f1)
	c2 := commit.NewMatrix(d.gr, f2)
	for j := 1; j <= d.n; j++ {
		f, c := f1, c1
		if j > d.n/2 {
			f, c = f2, c2
		}
		row := f.Row(int64(j))
		d.env.Send(msg.NodeID(j), &vss.SendMsg{Session: d.sessID, C: c, A: row.Coeffs()})
	}
}

func TestEquivocatingDealerSafety(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		var dealer *equivocatingDealer
		opts := harness.VSSOptions{
			N: 7, T: 2, Seed: seed,
			Byzantine: map[msg.NodeID]func(env *simnet.Env) simnet.Handler{
				1: func(env *simnet.Env) simnet.Handler {
					dealer = &equivocatingDealer{
						env: env, n: 7, t: 2, gr: group.Test256(),
						seed: seed, sessID: vss.SessionID{Dealer: 1, Tau: 1},
					}
					return dealer
				},
			},
		}
		res, err := harness.SetupVSS(&opts)
		if err != nil {
			t.Fatal(err)
		}
		dealer.deal()
		res.Net.Run(0)
		// Safety: no two honest nodes with different commitments.
		var ref *vss.SharedEvent
		for id, node := range res.Nodes {
			if !node.Done() {
				continue
			}
			ev := res.Shared[id]
			if ref == nil {
				ref = &ev
			} else if ref.C.Hash() != ev.C.Hash() {
				t.Fatalf("seed %d: honest nodes completed with different commitments", seed)
			}
		}
	}
}

// TestBadRowVictimsStillComplete: the dealer (honest commitment,
// Byzantine delivery) sends a corrupt row to one victim. verify-poly
// rejects at the victim, yet echo amplification completes it. (One
// victim is the most the t=2 budget allows here: the silent dealer
// already consumes the other fault — with a second victim only 4 < ⌈(n+t+1)/2⌉
// nodes would echo and no completion is promised.)
type badRowDealer struct {
	env     *simnet.Env
	n, t    int
	gr      *group.Group
	seed    uint64
	sessID  vss.SessionID
	victims map[int]bool
}

func (d *badRowDealer) HandleMessage(msg.NodeID, msg.Body) {}
func (d *badRowDealer) HandleTimer(uint64)                 {}
func (d *badRowDealer) HandleRecover()                     {}

func (d *badRowDealer) deal() {
	r := randutil.NewReader(d.seed)
	f, _ := poly.NewRandomSymmetric(d.gr.Q(), big.NewInt(777), d.t, r)
	c := commit.NewMatrix(d.gr, f)
	for j := 1; j <= d.n; j++ {
		row := f.Row(int64(j)).Coeffs()
		if d.victims[j] {
			row[0] = d.gr.AddQ(row[0], big.NewInt(1)) // corrupt
		}
		d.env.Send(msg.NodeID(j), &vss.SendMsg{Session: d.sessID, C: c, A: row})
	}
}

func TestBadRowVictimsStillComplete(t *testing.T) {
	var dealer *badRowDealer
	opts := harness.VSSOptions{
		N: 7, T: 2, Seed: 11,
		Byzantine: map[msg.NodeID]func(env *simnet.Env) simnet.Handler{
			1: func(env *simnet.Env) simnet.Handler {
				dealer = &badRowDealer{
					env: env, n: 7, t: 2, gr: group.Test256(), seed: 11,
					sessID:  vss.SessionID{Dealer: 1, Tau: 1},
					victims: map[int]bool{7: true},
				}
				return dealer
			},
		},
	}
	res, err := harness.SetupVSS(&opts)
	if err != nil {
		t.Fatal(err)
	}
	dealer.deal()
	res.Net.Run(0)
	for id, node := range res.Nodes {
		if !node.Done() {
			t.Fatalf("node %d did not complete despite honest commitment", id)
		}
		ev := res.Shared[id]
		if !ev.C.VerifyShare(int64(id), ev.Share) {
			t.Fatalf("node %d holds invalid share", id)
		}
	}
	if err := res.CheckConsistency(false); err != nil {
		t.Fatal(err)
	}
}

// wrongDegreeDealer deals an honest sharing whose polynomial has the
// wrong degree for the session.
type wrongDegreeDealer struct {
	env    *simnet.Env
	n, deg int
}

func (d *wrongDegreeDealer) HandleMessage(msg.NodeID, msg.Body) {}
func (d *wrongDegreeDealer) HandleTimer(uint64)                 {}
func (d *wrongDegreeDealer) HandleRecover()                     {}

func (d *wrongDegreeDealer) deal() {
	gr := group.Test256()
	f, _ := poly.NewRandomSymmetric(gr.Q(), big.NewInt(1000), d.deg, randutil.NewReader(54))
	c := commit.NewMatrix(gr, f)
	sess := vss.SessionID{Dealer: 1, Tau: 1}
	for j := 1; j <= d.n; j++ {
		d.env.Send(msg.NodeID(j), &vss.SendMsg{Session: sess, C: c, A: f.Row(int64(j)).Coeffs()})
	}
}

// TestWrongWidthDealingIgnored: a dealing whose matrix is not of the
// session's shape — a sharing of degree t−1 or t+1 — is not a dealing
// of that session, so no node echoes it or completes.
func TestWrongWidthDealingIgnored(t *testing.T) {
	const n, thr = 7, 2
	for _, deg := range []int{thr - 1, thr + 1} {
		var dealer *wrongDegreeDealer
		opts := harness.VSSOptions{
			N: n, T: thr, Seed: 54, HashedEcho: true,
			Byzantine: map[msg.NodeID]func(env *simnet.Env) simnet.Handler{
				1: func(env *simnet.Env) simnet.Handler {
					dealer = &wrongDegreeDealer{env: env, n: n, deg: deg}
					return dealer
				},
			},
		}
		res, err := harness.SetupVSS(&opts)
		if err != nil {
			t.Fatal(err)
		}
		dealer.deal()
		res.Net.Run(0)
		if done := res.HonestDone(); done != 0 {
			t.Errorf("degree %d: %d nodes completed", deg, done)
		}
		if echoes := res.Net.Stats().MsgCount[msg.TVSSEcho]; echoes != 0 {
			t.Errorf("degree %d: %d echoes sent", deg, echoes)
		}
	}
}

// TestAdversarialSchedulingDelays: delaying all dealer traffic to a
// victim arbitrarily long still lets the victim finish through echo
// and ready amplification (the asynchrony argument of §2.1).
func TestAdversarialSchedulingDelays(t *testing.T) {
	victim := msg.NodeID(3)
	res, err := harness.RunVSS(harness.VSSOptions{
		N: 7, T: 2, Seed: 12,
		Filter: func(from, to msg.NodeID, body msg.Body) simnet.Verdict {
			if from == 1 && to == victim {
				return simnet.Verdict{ExtraDelay: 1_000_000} // effectively never
			}
			return simnet.Verdict{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nodes[victim].Done() {
		t.Fatal("victim did not complete without dealer messages")
	}
	if err := res.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

// TestMessageCodecRoundTrips round-trips every VSS message type
// through the wire codec.
func TestMessageCodecRoundTrips(t *testing.T) {
	gr := group.Test256()
	r := randutil.NewReader(13)
	f, err := poly.NewRandomSymmetric(gr.Q(), big.NewInt(5), 2, r)
	if err != nil {
		t.Fatal(err)
	}
	c := commit.NewMatrix(gr, f)
	codec := msg.NewCodec()
	if err := vss.RegisterCodec(codec, gr); err != nil {
		t.Fatal(err)
	}
	sess := vss.SessionID{Dealer: 3, Tau: 9}
	bodies := []msg.Body{
		&vss.SendMsg{Session: sess, C: c, A: f.Row(1).Coeffs()},
		&vss.SendMsg{Session: sess, C: c, OmitPoly: true},
		&vss.EchoMsg{Session: sess, C: c, CHash: c.Hash(), Alpha: big.NewInt(99)},
		&vss.EchoMsg{Session: sess, CHash: c.Hash(), Alpha: big.NewInt(98)},
		&vss.ReadyMsg{Session: sess, C: c, CHash: c.Hash(), Alpha: big.NewInt(97), Sig: []byte{1, 2}},
		&vss.ReadyMsg{Session: sess, CHash: c.Hash(), Alpha: big.NewInt(96)},
		&vss.HelpMsg{Session: sess},
		&vss.RecShareMsg{Session: sess, Share: big.NewInt(44)},
	}
	for i, body := range bodies {
		env, err := msg.Seal(1, 2, body)
		if err != nil {
			t.Fatalf("body %d: seal: %v", i, err)
		}
		back, err := codec.Open(env)
		if err != nil {
			t.Fatalf("body %d: open: %v", i, err)
		}
		reEnc, err := back.MarshalBinary()
		if err != nil {
			t.Fatalf("body %d: re-marshal: %v", i, err)
		}
		orig, _ := body.MarshalBinary()
		if string(reEnc) != string(orig) {
			t.Errorf("body %d (%v): round trip not canonical", i, body.MsgType())
		}
	}
	// Corrupt payloads must not decode.
	for i, body := range bodies {
		enc, _ := body.MarshalBinary()
		if len(enc) < 2 {
			continue
		}
		if _, err := codec.Decode(body.MsgType(), enc[:len(enc)-1]); err == nil {
			t.Errorf("body %d: truncated payload decoded", i)
		}
	}
}

// TestHelpBudget: help requests beyond (t+1)·d(κ) are not served.
func TestHelpBudget(t *testing.T) {
	res, err := harness.RunVSS(harness.VSSOptions{N: 4, T: 1, Seed: 14, DMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := res.Net.Stats().TotalMsgs
	// Node 2 begs node 1 for help far beyond the budget.
	env := res.Net.Env(2)
	for k := 0; k < 20; k++ {
		env.Send(1, &vss.HelpMsg{Session: res.Session})
	}
	res.Net.Run(0)
	after := res.Net.Stats().TotalMsgs
	// 20 help messages sent; node 1 may serve at most d(κ)+1 = 2 of
	// them (paper's ≤ comparison), each retransmitting its log to
	// node 2 (at most 2 messages: echo+ready... plus help copies).
	served := after - before - 20
	// Node 1 (the dealer) may serve at most d(κ)+1 = 2 requests, each
	// retransmitting its log to node 2: send + echo + ready.
	maxServed := 2 * 3
	if served > maxServed {
		t.Errorf("served %d retransmissions, budget allows ≤ %d", served, maxServed)
	}
}

// TestWrongSessionIgnored: messages for other sessions do not affect
// state.
func TestWrongSessionIgnored(t *testing.T) {
	res, err := harness.RunVSS(harness.VSSOptions{N: 4, T: 1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	node := res.Nodes[2]
	share := node.Share()
	node.Handle(3, &vss.RecShareMsg{Session: vss.SessionID{Dealer: 2, Tau: 77}, Share: big.NewInt(1)})
	node.Handle(3, &vss.HelpMsg{Session: vss.SessionID{Dealer: 2, Tau: 77}})
	if node.Share().Cmp(share) != 0 {
		t.Error("wrong-session message changed state")
	}
}

// TestAccessorsBeforeCompletion: getters are nil-safe pre-completion.
func TestAccessorsBeforeCompletion(t *testing.T) {
	gr := group.Test256()
	params := vss.Params{Group: gr, N: 4, T: 1}
	nd, err := vss.NewNode(params, vss.SessionID{Dealer: 1, Tau: 1}, 2, nullSender{}, vss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Done() || nd.Share() != nil || nd.Commitment() != nil || nd.Reconstructed() != nil {
		t.Error("pre-completion accessors leaked state")
	}
	if nd.Session().Dealer != 1 {
		t.Error("session mismatch")
	}
}

// TestReadyCountedOnPointProofCheckedOnUse: in extended mode a ready
// with a valid point counts toward Fig. 1's thresholds whatever its
// signature is worth; the signature is checked when the R_d set is
// asked for. A garbage signature never appears in the set, the set
// stays unavailable while it is short, a later valid ready completes
// it, and a node restored from a snapshot derives the same set.
func TestReadyCountedOnPointProofCheckedOnUse(t *testing.T) {
	gr := group.Test256()
	const n, deg, self = 4, 1, 2
	scheme := sig.Ed25519{}
	dir, privs, err := harness.BuildDirectory(scheme, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := poly.NewRandomSymmetric(gr.Q(), big.NewInt(7), deg, randutil.NewReader(5))
	if err != nil {
		t.Fatal(err)
	}
	c := commit.NewMatrix(gr, f)
	sess := vss.SessionID{Dealer: 1, Tau: 1}
	params := vss.Params{Group: gr, N: n, T: deg, Extended: true, Directory: dir, SignKey: privs[self]}
	node, err := vss.NewNode(params, sess, self, discardSender{}, vss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ready := func(from msg.NodeID, valid bool) *vss.ReadyMsg {
		sigBytes := []byte("not a signature")
		if valid {
			if sigBytes, err = scheme.Sign(privs[from], vss.ReadyTranscript(sess, c.Hash())); err != nil {
				t.Fatal(err)
			}
		}
		return &vss.ReadyMsg{Session: sess, C: c, CHash: c.Hash(), Alpha: f.Eval(int64(from), self), Sig: sigBytes}
	}
	node.Handle(1, &vss.SendMsg{Session: sess, C: c, A: f.Row(self).Coeffs()})
	node.Handle(1, ready(1, true))
	node.Handle(3, ready(3, false))
	if node.Done() {
		t.Fatal("completed on two readies")
	}
	node.Handle(4, ready(4, true))
	if !node.Done() {
		t.Fatal("the ready with a garbage signature was not counted: n−t−f = 3 valid points arrived")
	}
	if proof := node.ReadyProof(); proof != nil {
		t.Fatalf("R_d offered with %d signatures, only 2 of the 3 counted readies carry a valid one", len(proof))
	}
	node.Handle(self, ready(self, true)) // the top-up
	want := []msg.NodeID{1, 4, self}
	check := func(who string, proof []vss.SignedReady) {
		t.Helper()
		if len(proof) != len(want) {
			t.Fatalf("%s: R_d has %d signatures, want %d", who, len(proof), len(want))
		}
		for i, sr := range proof {
			if sr.Signer != want[i] {
				t.Fatalf("%s: R_d signer %d is %d, want %d (arrival order, forger skipped)", who, i, sr.Signer, want[i])
			}
			if !dir.Verify(int64(sr.Signer), vss.ReadyTranscript(sess, c.Hash()), sr.Sig) {
				t.Fatalf("%s: R_d carries an invalid signature from %d", who, sr.Signer)
			}
		}
	}
	check("live node", node.ReadyProof())

	snap, err := node.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := vss.NewNode(params, sess, self, discardSender{}, vss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalState(stateCodec(t, gr), snap); err != nil {
		t.Fatal(err)
	}
	check("restored node", fresh.ReadyProof())
}
