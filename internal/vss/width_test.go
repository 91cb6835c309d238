package vss_test

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/vss"
)

// A sharing of width w carries w secrets through the handlers a
// width-1 sharing uses. These tests run those handlers at w > 1: every
// wire configuration completes consistently on every coordinate, and
// each way a batched message can be wrong on a coordinate other than
// the first ends as its width-1 analogue does.

func TestWidthRejected(t *testing.T) {
	params := vss.Params{Group: group.Test256(), N: 4, T: 1}
	for _, w := range []int{-1, 3, 5, 32} {
		_, err := vss.NewNode(params, vss.SessionID{Dealer: 1, Tau: 1}, 1, nullSender{}, vss.Options{Width: w})
		if err == nil {
			t.Errorf("width %d accepted", w)
		}
	}
}

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
	for _, w := range []int{1, 2, 16} {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("w%d/%s", w, mode.name), func(t *testing.T) {
				opts := mode.opts
				opts.N, opts.T, opts.Seed, opts.Width = 7, 2, 40+uint64(w), w
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
				// One dealing, w different secrets.
				seen := map[string]bool{}
				ev := res.Shared[1]
				for k := 0; k < w; k++ {
					seen[ev.Coordinate(k).C.PublicKey().String()] = true
				}
				if len(seen) != w {
					t.Fatalf("%d distinct secrets in a width-%d dealing", len(seen), w)
				}
			})
		}
	}
}

// wideDealer deals honest width-w matrices by hand and lets the test
// corrupt what it sends.
type wideDealer struct {
	env    *simnet.Env
	n, t   int
	gr     *group.Group
	sessID vss.SessionID
	fs     []*poly.BiPoly
	cs     []*commit.Matrix
}

func (d *wideDealer) HandleMessage(msg.NodeID, msg.Body) {}
func (d *wideDealer) HandleTimer(uint64)                 {}
func (d *wideDealer) HandleRecover()                     {}

func newWideDealer(env *simnet.Env, n, t, w int, seed uint64) *wideDealer {
	d := &wideDealer{env: env, n: n, t: t, gr: group.Test256(), sessID: vss.SessionID{Dealer: 1, Tau: 1}}
	r := randutil.NewReader(seed)
	for k := 0; k < w; k++ {
		f, _ := poly.NewRandomSymmetric(d.gr.Q(), big.NewInt(int64(1000+k)), t, r)
		d.fs = append(d.fs, f)
		d.cs = append(d.cs, commit.NewMatrix(d.gr, f))
	}
	return d
}

// deal sends every node its rows; corrupt, when set, may alter the
// message for node j before it leaves.
func (d *wideDealer) deal(corrupt func(j int, m *vss.SendMsg)) {
	for j := 1; j <= d.n; j++ {
		m := &vss.SendMsg{Session: d.sessID, C: d.cs[0], A: d.fs[0].Row(int64(j)).Coeffs(), MoreC: d.cs[1:]}
		for _, f := range d.fs[1:] {
			m.MoreA = append(m.MoreA, f.Row(int64(j)).Coeffs())
		}
		if corrupt != nil {
			corrupt(j, m)
		}
		d.env.Send(msg.NodeID(j), m)
	}
}

// TestWideBadRowOnLaterCoordinate: the dealer corrupts one victim's row
// on coordinate 2 only. Verify-poly holds on coordinates 0, 1 and 3,
// and the victim still rejects the send; as at width 1
// (TestBadRowVictimsStillComplete) echo amplification completes it.
func TestWideBadRowOnLaterCoordinate(t *testing.T) {
	const n, thr, w, victim = 7, 2, 4, 7
	var dealer *wideDealer
	opts := harness.VSSOptions{
		N: n, T: thr, Seed: 51, Width: w,
		Byzantine: map[msg.NodeID]func(env *simnet.Env) simnet.Handler{
			1: func(env *simnet.Env) simnet.Handler {
				dealer = newWideDealer(env, n, thr, w, 51)
				return dealer
			},
		},
	}
	res, err := harness.SetupVSS(&opts)
	if err != nil {
		t.Fatal(err)
	}
	dealer.deal(func(j int, m *vss.SendMsg) {
		if j == victim {
			m.MoreA[1][0] = dealer.gr.AddQ(m.MoreA[1][0], big.NewInt(1))
		}
	})
	res.Net.Run(0)
	for id, node := range res.Nodes {
		if !node.Done() {
			t.Fatalf("node %d did not complete despite honest commitments", id)
		}
	}
	if err := res.CheckConsistency(false); err != nil {
		t.Fatal(err)
	}
	// The victim sent no echo: it never accepted the dealing.
	if got, want := res.Net.Stats().MsgCount[msg.TVSSEcho], (n-2)*n; got != want {
		t.Fatalf("%d echoes sent, want %d (every honest node but the victim)", got, want)
	}
}

// coordinateEchoCorrupter echoes honestly on every coordinate but one.
type coordinateEchoCorrupter struct {
	env    *simnet.Env
	n, bad int
	gr     *group.Group
}

func (e *coordinateEchoCorrupter) HandleTimer(uint64) {}
func (e *coordinateEchoCorrupter) HandleRecover()     {}

func (e *coordinateEchoCorrupter) HandleMessage(from msg.NodeID, body msg.Body) {
	m, ok := body.(*vss.SendMsg)
	if !ok || from != m.Session.Dealer {
		return
	}
	cs := append([]*commit.Matrix{m.C}, m.MoreC...)
	for j := 1; j <= e.n; j++ {
		var alpha []*big.Int
		for k, coeffs := range append([][]*big.Int{m.A}, m.MoreA...) {
			a, err := poly.FromCoeffs(e.gr.Q(), coeffs)
			if err != nil {
				return
			}
			v := a.EvalInt(int64(j))
			if k == e.bad {
				v = e.gr.AddQ(v, big.NewInt(1))
			}
			alpha = append(alpha, v)
		}
		e.env.Send(msg.NodeID(j), &vss.EchoMsg{Session: m.Session, C: m.C, MoreC: m.MoreC, CHash: vss.DealingHash(cs), Alpha: alpha[0], MoreAlpha: alpha[1:]})
	}
}

// TestWideEchoCorruptOnLaterCoordinate: a Byzantine node's echoes are
// right on coordinate 0 and wrong on coordinate 3. The dealer also
// withholds one victim's row, so the victim verifies flood points
// against the matrices (the batch path) while every other node checks
// them against its row. Nobody may count the corrupt vector: with
// n=10, t=3 the echo threshold is 7, and exactly 7 honest echoes
// exist, so every honest node completes — and on the right shares —
// only if the bad vector is rejected whole and no honest one is. This
// is TestBatchedFloodVictimCompletes at width 4.
func TestWideEchoCorruptOnLaterCoordinate(t *testing.T) {
	const n, thr, w, victim = 10, 3, 4, 10
	for _, disableBatch := range []bool{false, true} {
		var dealer *wideDealer
		opts := harness.VSSOptions{
			N: n, T: thr, Seed: 52, Width: w, DisableBatch: disableBatch,
			Byzantine: map[msg.NodeID]func(env *simnet.Env) simnet.Handler{
				1: func(env *simnet.Env) simnet.Handler {
					dealer = newWideDealer(env, n, thr, w, 52)
					return dealer
				},
				2: func(env *simnet.Env) simnet.Handler {
					return &coordinateEchoCorrupter{env: env, n: n, bad: 3, gr: group.Test256()}
				},
			},
		}
		res, err := harness.SetupVSS(&opts)
		if err != nil {
			t.Fatal(err)
		}
		dealer.deal(func(j int, m *vss.SendMsg) {
			if j == victim {
				m.A[0] = dealer.gr.AddQ(m.A[0], big.NewInt(1))
			}
		})
		res.Net.Run(0)
		for id, node := range res.Nodes {
			if !node.Done() {
				t.Fatalf("batch off=%v: node %d did not complete", disableBatch, id)
			}
		}
		if err := res.CheckConsistency(false); err != nil {
			t.Fatalf("batch off=%v: %v", disableBatch, err)
		}
	}
}

// TestInjectedFirstCoordinateOnlyBreaksShares shows what the chaos
// lab's injected bug does, and so what the every-coordinate rule
// protects: a node that checks coordinate 0 alone counts a vector that
// lies on coordinate 1 and interpolates a wrong share from it.
func TestInjectedFirstCoordinateOnlyBreaksShares(t *testing.T) {
	gr := group.Test256()
	const n, thr, w = 4, 1, 2
	d := newWideDealer(nil, n, thr, w, 53)
	params := vss.Params{Group: gr, N: n, T: thr, HashedEcho: true}
	for _, inject := range []bool{false, true} {
		var got *vss.SharedEvent
		node, err := vss.NewNode(params, d.sessID, 4, nullSender{}, vss.Options{
			Width:                           w,
			InjectVerifyFirstCoordinateOnly: inject,
			OnShared:                        func(ev vss.SharedEvent) { got = &ev },
		})
		if err != nil {
			t.Fatal(err)
		}
		h := vss.DealingHash(d.cs)
		node.Handle(1, &vss.SendMsg{Session: d.sessID, C: d.cs[0], MoreC: d.cs[1:], OmitPoly: true})
		// Sender 2 lies on coordinate 1 and is heard first, so a node that
		// counts it interpolates from {2, 1}; the others are honest.
		for _, from := range []int64{2, 1, 3, 4} {
			a0, a1 := d.fs[0].Eval(from, 4), d.fs[1].Eval(from, 4)
			if from == 2 {
				a1 = gr.AddQ(a1, big.NewInt(1))
			}
			node.Handle(msg.NodeID(from), &vss.ReadyMsg{Session: d.sessID, CHash: h, Alpha: a0, MoreAlpha: []*big.Int{a1}})
		}
		if got == nil {
			t.Fatalf("inject=%v: sharing did not complete", inject)
		}
		ok := got.Coordinate(1).C.VerifyShare(4, got.Coordinate(1).Share)
		if ok == inject {
			t.Fatalf("inject=%v: coordinate-1 share valid=%v", inject, ok)
		}
		if !got.C.VerifyShare(4, got.Share) {
			t.Fatalf("inject=%v: coordinate-0 share invalid", inject)
		}
	}
}

// TestWrongWidthDealingIgnored: a dealing whose width is not the
// session's is not a dealing of that session — no node echoes it, as
// no node echoes a width-1 dealing of the wrong degree.
func TestWrongWidthDealingIgnored(t *testing.T) {
	const n, thr = 7, 2
	for _, tc := range []struct{ session, dealt int }{{4, 2}, {4, 8}, {1, 2}, {2, 1}} {
		var dealer *wideDealer
		opts := harness.VSSOptions{
			N: n, T: thr, Seed: 54, Width: tc.session, HashedEcho: true,
			Byzantine: map[msg.NodeID]func(env *simnet.Env) simnet.Handler{
				1: func(env *simnet.Env) simnet.Handler {
					dealer = newWideDealer(env, n, thr, tc.dealt, 54)
					return dealer
				},
			},
		}
		res, err := harness.SetupVSS(&opts)
		if err != nil {
			t.Fatal(err)
		}
		dealer.deal(nil)
		res.Net.Run(0)
		if done := res.HonestDone(); done != 0 {
			t.Errorf("session width %d, dealt %d: %d nodes completed", tc.session, tc.dealt, done)
		}
		if echoes := res.Net.Stats().MsgCount[msg.TVSSEcho]; echoes != 0 {
			t.Errorf("session width %d, dealt %d: %d echoes sent", tc.session, tc.dealt, echoes)
		}
	}
}

func wideBodies(tb testing.TB, gr *group.Group) []msg.Body {
	tb.Helper()
	d := newWideDealer(nil, 4, 2, 4, 55)
	sess := vss.SessionID{Dealer: 3, Tau: 9}
	h := vss.DealingHash(d.cs)
	rows := func() (out [][]*big.Int) {
		for _, f := range d.fs[1:] {
			out = append(out, f.Row(1).Coeffs())
		}
		return out
	}
	pts := []*big.Int{big.NewInt(7), big.NewInt(0), big.NewInt(1 << 40)}
	return []msg.Body{
		&vss.SendMsg{Session: sess, C: d.cs[0], A: d.fs[0].Row(1).Coeffs(), MoreC: d.cs[1:], MoreA: rows()},
		&vss.SendMsg{Session: sess, C: d.cs[0], A: d.fs[0].Row(1).Coeffs(), MoreC: d.cs[1:], MoreA: rows(), Compressed: true},
		&vss.SendMsg{Session: sess, C: d.cs[0], MoreC: d.cs[1:], OmitPoly: true},
		&vss.EchoMsg{Session: sess, C: d.cs[0], MoreC: d.cs[1:], CHash: h, Alpha: big.NewInt(99), MoreAlpha: pts},
		&vss.EchoMsg{Session: sess, CHash: h, Alpha: big.NewInt(98), MoreAlpha: pts},
		&vss.ReadyMsg{Session: sess, C: d.cs[0], MoreC: d.cs[1:], CHash: h, Alpha: big.NewInt(97), MoreAlpha: pts, Sig: []byte{1, 2}},
		&vss.ReadyMsg{Session: sess, CHash: h, Alpha: big.NewInt(96), MoreAlpha: pts},
		&vss.MatrixMsg{Session: sess, C: d.cs[0], MoreC: d.cs[1:], Compressed: true},
	}
}

// TestWideCodecRoundTrips: the widened messages round-trip canonically,
// a full-matrix echo decodes to the digest over all its matrices, the
// trailing section is never empty, and a width-1 message encodes to
// the bytes it had before the section existed.
func TestWideCodecRoundTrips(t *testing.T) {
	gr := group.Test256()
	codec := msg.NewCodec()
	if err := vss.RegisterCodec(codec, gr); err != nil {
		t.Fatal(err)
	}
	for i, body := range wideBodies(t, gr) {
		enc, err := body.MarshalBinary()
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		back, err := codec.Decode(body.MsgType(), enc)
		if err != nil {
			t.Fatalf("body %d (%v): decode: %v", i, body.MsgType(), err)
		}
		reEnc, err := back.MarshalBinary()
		if err != nil {
			t.Fatalf("body %d: re-marshal: %v", i, err)
		}
		if c, ok := body.(*vss.SendMsg); ok && c.Compressed {
			// Compressed is a marshal-side flag: the decoded message
			// re-encodes uncompressed and must decode to the same digest.
			continue
		}
		if _, ok := body.(*vss.MatrixMsg); !ok && !bytes.Equal(reEnc, enc) {
			t.Errorf("body %d (%v): round trip not canonical", i, body.MsgType())
		}
		if e, ok := back.(*vss.EchoMsg); ok && e.CHash != body.(*vss.EchoMsg).CHash {
			t.Errorf("body %d: decoded echo names another digest", i)
		}
		if _, err := codec.Decode(body.MsgType(), enc[:len(enc)-1]); err == nil {
			t.Errorf("body %d (%v): truncated payload decoded", i, body.MsgType())
		}
	}

	// Width 1: the legacy layout, written out by hand.
	sess := vss.SessionID{Dealer: 3, Tau: 9}
	echo := &vss.EchoMsg{Session: sess, CHash: [32]byte{4, 5, 6}, Alpha: big.NewInt(1234)}
	w := msg.NewWriter(64)
	w.Node(3)
	w.U64(9)
	w.Bool(false)
	w.Blob(echo.CHash[:])
	w.Big(echo.Alpha)
	enc, _ := echo.MarshalBinary()
	if !bytes.Equal(enc, w.Bytes()) {
		t.Fatal("width-1 echo encoding moved")
	}
	// An empty trailing section would be a second encoding of it.
	if _, err := codec.Decode(msg.TVSSEcho, append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("empty trailing section decoded")
	}
	if _, err := codec.Decode(msg.TVSSEcho, append(append([]byte(nil), enc...), vss.MaxWidth)); err == nil {
		t.Fatal("trailing section wider than MaxWidth decoded")
	}
}

func fuzzDecoder(f *testing.F, typ msg.Type) {
	gr := group.Test256()
	codec := msg.NewCodec()
	if err := vss.RegisterCodec(codec, gr); err != nil {
		f.Fatal(err)
	}
	for _, body := range wideBodies(f, gr) {
		if body.MsgType() == typ {
			enc, err := body.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := codec.Decode(typ, data)
		if err != nil {
			return
		}
		// What decodes re-encodes, and to something that decodes again.
		enc, err := body.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", typ, err)
		}
		if _, err := codec.Decode(typ, enc); err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", typ, err)
		}
	})
}

func FuzzDecodeSend(f *testing.F)   { fuzzDecoder(f, msg.TVSSSend) }
func FuzzDecodeEcho(f *testing.F)   { fuzzDecoder(f, msg.TVSSEcho) }
func FuzzDecodeReady(f *testing.F)  { fuzzDecoder(f, msg.TVSSReady) }
func FuzzDecodeMatrix(f *testing.F) { fuzzDecoder(f, msg.TVSSMatrix) }
