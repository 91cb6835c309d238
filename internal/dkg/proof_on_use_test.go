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

// countingScheme counts signature verifications.
type countingScheme struct {
	sig.Scheme
	verifies int
}

func (c *countingScheme) Verify(pub, message, sigBytes []byte) bool {
	c.verifies++
	return c.Scheme.Verify(pub, message, sigBytes)
}

// onUseFixture is a four-node session driven by hand: dealers 2 and 3
// have dealt, and the leader's genuine proposal Q = {2, 3} carries
// valid R_d sets.
type onUseFixture struct {
	t       *testing.T
	gr      *group.Group
	counter *countingScheme
	dir     *sig.Directory
	privs   map[msg.NodeID][]byte
	polys   map[msg.NodeID]*poly.BiPoly
	prop    *Proposal
}

const onUseN, onUseT, onUseTau = 4, 1, 1

func newOnUseFixture(t *testing.T) *onUseFixture {
	t.Helper()
	fx := &onUseFixture{t: t, gr: group.Test256(), counter: &countingScheme{Scheme: sig.Ed25519{}},
		privs: map[msg.NodeID][]byte{}, polys: map[msg.NodeID]*poly.BiPoly{}}
	fx.dir = sig.NewDirectory(fx.counter)
	r := randutil.NewReader(41)
	for i := 1; i <= onUseN; i++ {
		priv, pub, err := fx.counter.GenerateKey(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.dir.Add(int64(i), pub); err != nil {
			t.Fatal(err)
		}
		fx.privs[msg.NodeID(i)] = priv
	}
	fx.prop = &Proposal{Kind: KindVSS}
	for _, d := range []msg.NodeID{2, 3} {
		f, err := poly.NewRandomSymmetric(fx.gr.Q(), big.NewInt(int64(d)), onUseT, r)
		if err != nil {
			t.Fatal(err)
		}
		fx.polys[d] = f
		c := commit.NewMatrix(fx.gr, f)
		fx.prop.Q = append(fx.prop.Q, d)
		fx.prop.CHashes = append(fx.prop.CHashes, c.Hash())
		var rd []vss.SignedReady
		for _, from := range []msg.NodeID{1, 3, 4} {
			rd = append(rd, vss.SignedReady{Signer: from, Sig: fx.sign(from, vss.ReadyTranscript(vss.SessionID{Dealer: d, Tau: onUseTau}, c.Hash()))})
		}
		fx.prop.VSSProofs = append(fx.prop.VSSProofs, rd)
	}
	return fx
}

func (fx *onUseFixture) sign(from msg.NodeID, transcript []byte) []byte {
	fx.t.Helper()
	s, err := fx.counter.Sign(fx.privs[from], transcript)
	if err != nil {
		fx.t.Fatal(err)
	}
	return s
}

// node builds node self, recording what it sends.
func (fx *onUseFixture) node(self msg.NodeID, sent *[]msg.Body) *Node {
	fx.t.Helper()
	nd, err := NewNode(Params{Group: fx.gr, N: onUseN, T: onUseT, Directory: fx.dir, SignKey: fx.privs[self]},
		onUseTau, self, senderFunc(func(_ msg.NodeID, body msg.Body) { *sent = append(*sent, body) }), Options{})
	if err != nil {
		fx.t.Fatal(err)
	}
	return nd
}

// complete runs dealer d's sharing f to completion on nd: the dealer's
// row, then n−t−f readies on valid points. Ready signatures are not
// checked there (they are checked on use).
func (fx *onUseFixture) complete(nd *Node, d msg.NodeID, f *poly.BiPoly) {
	fx.t.Helper()
	session, c := vss.SessionID{Dealer: d, Tau: onUseTau}, commit.NewMatrix(fx.gr, f)
	nd.Handle(d, &vss.SendMsg{Session: session, C: c, A: f.Row(int64(nd.self)).Coeffs()})
	for _, from := range []msg.NodeID{1, 3, 4} {
		nd.Handle(from, &vss.ReadyMsg{Session: session, C: c, CHash: c.Hash(), Alpha: f.Eval(int64(from), int64(nd.self)),
			Sig: fx.sign(from, vss.ReadyTranscript(session, c.Hash()))})
	}
	if !nd.VSSNode(d).Done() {
		fx.t.Fatalf("node %d did not complete dealer %d's sharing", nd.self, d)
	}
}

func (fx *onUseFixture) echo(from msg.NodeID, forged bool) *EchoMsg {
	s := []byte("forged")
	if !forged {
		s = fx.sign(from, EchoTranscript(onUseTau, fx.prop.Digest(onUseTau)))
	}
	return &EchoMsg{Tau: onUseTau, Prop: fx.prop.Slim(), Sig: s}
}

func (fx *onUseFixture) ready(from msg.NodeID, forged bool) *ReadyMsg {
	s := []byte("forged")
	if !forged {
		s = fx.sign(from, ReadyTranscript(onUseTau, fx.prop.Digest(onUseTau)))
	}
	return &ReadyMsg{Tau: onUseTau, Prop: fx.prop.Slim(), Sig: s}
}

func countSent[T msg.Body](sent []msg.Body) int {
	n := 0
	for _, b := range sent {
		if _, ok := b.(T); ok {
			n++
		}
	}
	return n
}

// TestOnUseFollowerSkipsCompletedRd: a follower that completed
// every sharing in Q checks no R_d signature when the leader proposes
// it, and counts echoes without checking them until its lock draws the
// M set. A sharing it completed under another digest is checked, and a
// forgery there turns the proposal away.
func TestOnUseFollowerSkipsCompletedRd(t *testing.T) {
	fx := newOnUseFixture(t)
	var sent []msg.Body
	follower := fx.node(2, &sent)
	fx.complete(follower, 2, fx.polys[2])
	fx.complete(follower, 3, fx.polys[3])

	fx.counter.verifies = 0
	follower.Handle(1, &SendMsg{Tau: onUseTau, View: 1, Prop: fx.prop})
	if got := countSent[*EchoMsg](sent); got != onUseN {
		t.Fatalf("follower sent %d echoes, want %d", got, onUseN)
	}
	follower.Handle(1, fx.echo(1, false))
	follower.Handle(3, fx.echo(3, false))
	if fx.counter.verifies != 0 {
		t.Fatalf("follower made %d signature checks before its lock, want 0", fx.counter.verifies)
	}
	follower.Handle(2, fx.echo(2, false)) // the echo threshold: the lock checks its M set
	if want := follower.params.EchoThreshold() - 1; fx.counter.verifies != want || follower.lock == nil {
		t.Fatalf("lock made %d checks (locked %v), want %d: all but its own", fx.counter.verifies, follower.lock != nil, want)
	}

	// Node 3 completed dealer 2 under another dealing: R_2 is checked,
	// R_3 is not.
	other, err := poly.NewRandomSymmetric(fx.gr.Q(), big.NewInt(99), onUseT, randutil.NewReader(42))
	if err != nil {
		t.Fatal(err)
	}
	var splitSent []msg.Body
	split := fx.node(3, &splitSent)
	fx.complete(split, 2, other)
	fx.complete(split, 3, fx.polys[3])
	forged := *fx.prop
	forged.VSSProofs = [][]vss.SignedReady{append([]vss.SignedReady(nil), fx.prop.VSSProofs[0]...), fx.prop.VSSProofs[1]}
	forged.VSSProofs[0][1].Sig = []byte("forged")
	split.Handle(1, &SendMsg{Tau: onUseTau, View: 1, Prop: &forged})
	if countSent[*EchoMsg](splitSent) != 0 {
		t.Fatal("follower echoed a proposal whose R_d for a sharing it completed differently carries a forgery")
	}
	fx.counter.verifies = 0
	split.Handle(1, &SendMsg{Tau: onUseTau, View: 1, Prop: fx.prop})
	if got := countSent[*EchoMsg](splitSent); got != onUseN {
		t.Fatalf("follower sent %d echoes for the genuine proposal, want %d", got, onUseN)
	}
	if want := follower.params.ReadyThreshold(); fx.counter.verifies != want {
		t.Fatalf("follower made %d checks, want %d (R_2 only)", fx.counter.verifies, want)
	}
}

// TestOnUseLockDropsForgedSigs: echoes and readies count by
// sender, and the lock verifies the first quorum of them. A forged
// signature among the first arrivals loses its sender's slot, the lock
// waits for the next genuine arrival, and the M set that can leave the
// node holds valid signatures only.
func TestOnUseLockDropsForgedSigs(t *testing.T) {
	fx := newOnUseFixture(t)
	var sent []msg.Body
	nd := fx.node(4, &sent)
	nd.Handle(1, &SendMsg{Tau: onUseTau, View: 1, Prop: fx.prop})
	nd.Handle(1, fx.echo(1, true))
	nd.Handle(3, fx.echo(3, false))
	nd.Handle(4, fx.echo(4, false))
	if nd.lock != nil || countSent[*ReadyMsg](sent) != 0 {
		t.Fatal("locked on an echo quorum holding a forged signature")
	}
	nd.Handle(1, fx.echo(1, false)) // node 1 was counted once already
	if nd.lock != nil {
		t.Fatal("a second echo from a seen sender filled the quorum")
	}
	fx.counter.verifies = 0
	nd.Handle(2, fx.echo(2, false))
	if nd.lock == nil || countSent[*ReadyMsg](sent) != onUseN {
		t.Fatal("no lock and ready on the genuine echo that completes the quorum")
	}
	if fx.counter.verifies != 1 {
		t.Fatalf("the retry made %d checks, want 1: verified signatures are not checked again", fx.counter.verifies)
	}
	m := nd.bestMaterial()
	if m.Kind != KindEcho || len(m.QSigs) != nd.params.EchoThreshold() {
		t.Fatalf("M set: kind %d with %d signatures", m.Kind, len(m.QSigs))
	}
	transcript := EchoTranscript(onUseTau, fx.prop.Digest(onUseTau))
	for _, s := range m.QSigs {
		if s.Signer == 1 || !fx.dir.Verify(int64(s.Signer), transcript, s.Sig) {
			t.Fatalf("M set carries signer %d's forgery", s.Signer)
		}
	}

	// The same on t+1 readies; n−t−f readies then decide, unchecked.
	sent = nil
	rd := fx.node(3, &sent)
	rd.Handle(1, fx.ready(1, true))
	rd.Handle(2, fx.ready(2, false))
	if rd.lock != nil {
		t.Fatal("locked on t+1 readies holding a forged signature")
	}
	rd.Handle(4, fx.ready(4, false))
	if rd.lock == nil || rd.lock.kind != KindReady || countSent[*ReadyMsg](sent) != onUseN {
		t.Fatal("no ready lock on the genuine ready that completes t+1")
	}
	readyT := ReadyTranscript(onUseTau, fx.prop.Digest(onUseTau))
	for _, s := range rd.bestMaterial().QSigs {
		if s.Signer == 1 || !fx.dir.Verify(int64(s.Signer), readyT, s.Sig) {
			t.Fatalf("ready M set carries signer %d's forgery", s.Signer)
		}
	}
	if rd.decided != nil {
		t.Fatal("decided with the forger's ready counted")
	}
	rd.Handle(3, fx.ready(3, false))
	if rd.decided == nil {
		t.Fatal("n−t−f genuine readies did not decide")
	}
}
