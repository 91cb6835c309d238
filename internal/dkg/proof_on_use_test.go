package dkg

import (
	"math/big"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/vss"
)

// TestRdVerifiedOnUse drives a leader and a follower by hand across the
// boundary where R_d signatures are checked: VSS readies are counted on
// their points alone, so a sharing can complete holding a forged
// signature; the leader must not put it in a proposal, waits while the
// set is short, proposes on the ready that tops it up, and a follower
// turns away a proposal that carries the forgery.
func TestRdVerifiedOnUse(t *testing.T) {
	const n, tt, tau = 4, 1, 1
	gr := group.Test256()
	scheme := sig.Ed25519{}
	dir := sig.NewDirectory(scheme)
	privs := make(map[msg.NodeID][]byte, n)
	r := randutil.NewReader(15)
	for i := 1; i <= n; i++ {
		priv, pub, err := scheme.GenerateKey(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Add(int64(i), pub); err != nil {
			t.Fatal(err)
		}
		privs[msg.NodeID(i)] = priv
	}
	newNode := func(self msg.NodeID, sent *[]msg.Body) *Node {
		nd, err := NewNode(Params{Group: gr, N: n, T: tt, Directory: dir, SignKey: privs[self]},
			tau, self, senderFunc(func(_ msg.NodeID, body msg.Body) { *sent = append(*sent, body) }), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	sends := func(sent []msg.Body) (out []*SendMsg) {
		for _, b := range sent {
			if m, ok := b.(*SendMsg); ok {
				out = append(out, m)
			}
		}
		return out
	}

	// Two dealers' sharings, fed to a node as the dealer's send plus
	// readies from the named senders; forger's ready carries a valid
	// point under a garbage signature.
	type dealing struct {
		f *poly.BiPoly
		c *commit.Matrix
	}
	dealings := map[msg.NodeID]dealing{}
	for _, d := range []msg.NodeID{2, 3} {
		f, err := poly.NewRandomSymmetric(gr.Q(), big.NewInt(int64(d)), tt, r)
		if err != nil {
			t.Fatal(err)
		}
		dealings[d] = dealing{f: f, c: commit.NewMatrix(gr, f)}
	}
	ready := func(d, from, to msg.NodeID, forged bool) *vss.ReadyMsg {
		dl, session := dealings[d], vss.SessionID{Dealer: d, Tau: tau}
		sigBytes := []byte("forged")
		if !forged {
			var err error
			if sigBytes, err = scheme.Sign(privs[from], vss.ReadyTranscript(session, dl.c.Hash())); err != nil {
				t.Fatal(err)
			}
		}
		return &vss.ReadyMsg{Session: session, C: dl.c, CHash: dl.c.Hash(), Alpha: dl.f.Eval(int64(from), int64(to)), Sig: sigBytes}
	}
	deal := func(nd *Node, d msg.NodeID) {
		nd.Handle(d, &vss.SendMsg{Session: vss.SessionID{Dealer: d, Tau: tau}, C: dealings[d].c, A: dealings[d].f.Row(int64(nd.self)).Coeffs()})
	}

	var leaderSent []msg.Body
	leader := newNode(1, &leaderSent)
	deal(leader, 2)
	deal(leader, 3)
	for _, from := range []msg.NodeID{2, 3, 4} {
		leader.Handle(from, ready(3, from, 1, false))
		leader.Handle(from, ready(2, from, 1, from == 4)) // node 4 forges on dealer 2
	}
	if !leader.VSSNode(2).Done() || !leader.VSSNode(3).Done() {
		t.Fatal("sharings did not complete on n−t−f valid points each")
	}
	if got := sends(leaderSent); len(got) != 0 {
		t.Fatalf("leader proposed with dealer 2's R_d one valid signature short: %+v", got[0].Prop)
	}
	leader.Handle(1, ready(2, 1, 1, false)) // the leader's own ready tops dealer 2 up
	got := sends(leaderSent)
	if len(got) != n {
		t.Fatalf("leader sent %d proposals after the top-up ready, want %d", len(got), n)
	}
	prop := got[0].Prop
	if len(prop.Q) != 2 || prop.Q[0] != 2 || prop.Q[1] != 3 {
		t.Fatalf("proposed Q = %v, want [2 3]", prop.Q)
	}
	for i, d := range prop.Q {
		transcript := vss.ReadyTranscript(vss.SessionID{Dealer: d, Tau: tau}, prop.CHashes[i])
		if len(prop.VSSProofs[i]) != n-tt {
			t.Fatalf("dealer %d: R_d has %d signatures, want %d", d, len(prop.VSSProofs[i]), n-tt)
		}
		for _, sr := range prop.VSSProofs[i] {
			if !dir.Verify(int64(sr.Signer), transcript, sr.Sig) {
				t.Fatalf("dealer %d: outgoing R_d carries an invalid signature from %d", d, sr.Signer)
			}
		}
	}

	// A node restored from the leader's snapshot derives the same sets.
	codec := msg.NewCodec()
	if err := vss.RegisterCodec(codec, gr); err != nil {
		t.Fatal(err)
	}
	if err := RegisterCodec(codec); err != nil {
		t.Fatal(err)
	}
	snap, err := leader.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreNode(Params{Group: gr, N: n, T: tt, Directory: dir, SignKey: privs[1]},
		tau, 1, senderFunc(func(msg.NodeID, msg.Body) {}), Options{}, codec, snap)
	if err != nil {
		t.Fatal(err)
	}
	again := restored.ownQhat()
	if again == nil || again.Digest(tau) != prop.Digest(tau) {
		t.Fatal("restored node assembles a different Q̂")
	}
	for i := range prop.Q {
		if len(again.VSSProofs[i]) != len(prop.VSSProofs[i]) {
			t.Fatalf("restored node: R_%d has %d signatures, want %d", prop.Q[i], len(again.VSSProofs[i]), len(prop.VSSProofs[i]))
		}
		for j, sr := range prop.VSSProofs[i] {
			if again.VSSProofs[i][j].Signer != sr.Signer || string(again.VSSProofs[i][j].Sig) != string(sr.Sig) {
				t.Fatalf("restored node: R_%d differs at %d", prop.Q[i], j)
			}
		}
	}

	// A follower refuses the same proposal with the forgery swapped in,
	// and echoes the genuine one.
	var followerSent []msg.Body
	follower := newNode(2, &followerSent)
	forgedProp := *prop
	forgedProp.VSSProofs = [][]vss.SignedReady{append([]vss.SignedReady(nil), prop.VSSProofs[0]...), prop.VSSProofs[1]}
	forgedProp.VSSProofs[0][0] = vss.SignedReady{Signer: 4, Sig: []byte("forged")}
	follower.Handle(1, &SendMsg{Tau: tau, View: 1, Prop: &forgedProp})
	if len(followerSent) != 0 {
		t.Fatal("follower echoed a proposal whose R_d carries a forged signature")
	}
	follower.Handle(1, &SendMsg{Tau: tau, View: 1, Prop: prop})
	echoes := 0
	for _, b := range followerSent {
		if _, ok := b.(*EchoMsg); ok {
			echoes++
		}
	}
	if echoes != n {
		t.Fatalf("follower sent %d echoes for the genuine proposal, want %d", echoes, n)
	}
}
