package dataplane

import (
	"math/big"
	"slices"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

var backends = []*group.Group{group.P256(), group.Test256()}

// pendingDecrypt is one decryption, or beacon round, the rig's service
// (node 1) is aggregating. A beacon round has ct.C1 = H_r; plain is the
// value H_r^s it must combine to and out the output hashed from it.
type pendingDecrypt struct {
	ct     thresh.Ciphertext
	plain  group.Element
	round  uint64 // beacon round; 0 for a decryption
	out    [32]byte
	digest [32]byte
	res    *Result
	err    *error
	done   *bool
}

// startDecrypt encrypts a fresh element under the rig's key, submits it
// and flushes, so node 1 has recorded its own share and fanned out.
func (r *testRig) startDecrypt(t *testing.T, seed uint64) pendingDecrypt {
	t.Helper()
	rng := randutil.NewReader(seed)
	x, err := r.gr.RandScalar(rng)
	if err != nil {
		t.Fatal(err)
	}
	pd := pendingDecrypt{plain: r.gr.GExp(x), res: new(Result), err: new(error), done: new(bool)}
	if pd.ct, err = thresh.Encrypt(r.gr, r.keyV.PublicKey(), pd.plain, rng); err != nil {
		t.Fatal(err)
	}
	pd.digest = DecryptDigest(1, r.gr.EncodeCompressed(pd.ct.C1), r.gr.EncodeCompressed(pd.ct.C2))
	if err := r.svc.Decrypt(1, pd.ct, func(res Result, err error) {
		*pd.res, *pd.err, *pd.done = res, err, true
	}); err != nil {
		t.Fatal(err)
	}
	r.svc.Flush(1)
	return pd
}

// startBeacon submits beacon round and flushes, as startDecrypt does.
func (r *testRig) startBeacon(t *testing.T, round uint64) pendingDecrypt {
	t.Helper()
	h := thresh.BeaconBase(r.gr, r.keyV.PublicKey(), round)
	pd := pendingDecrypt{
		ct: thresh.Ciphertext{C1: h}, plain: r.gr.Exp(h, r.keyP.Secret()), round: round,
		digest: BeaconDigest(1, round), res: new(Result), err: new(error), done: new(bool),
	}
	pd.out = thresh.BeaconOutput(r.gr, round, pd.plain)
	if err := r.svc.Beacon(1, round, func(res Result, err error) {
		*pd.res, *pd.err, *pd.done = res, err, true
	}); err != nil {
		t.Fatal(err)
	}
	r.svc.Flush(1)
	return pd
}

// answer delivers peer from's partial for pd, proved with share under v.
func (r *testRig) answer(t *testing.T, pd pendingDecrypt, from msg.NodeID, share *big.Int, v *commit.Vector, tamper func(*RespItem)) {
	t.Helper()
	part, err := thresh.PartialDecrypt(r.gr, thresh.KeyShare{Self: from, Share: share, V: v}, pd.ct, randutil.NewReader(uint64(from)))
	if err != nil {
		t.Fatal(err)
	}
	it := RespItem{Digest: pd.digest, Status: StOK, D: part.D, E: part.Proof.E, Z: part.Proof.Z}
	if tamper != nil {
		tamper(&it)
	}
	r.svc.HandleMessage(from, &PartialResp{Key: 1, Items: []RespItem{it}})
}

func (pd pendingDecrypt) check(t *testing.T) {
	t.Helper()
	if !*pd.done || *pd.err != nil {
		t.Fatalf("request did not complete: done=%v err=%v", *pd.done, *pd.err)
	}
	if pd.round != 0 {
		if b := pd.res.Beacon; !b.Value.Equal(pd.plain) || b.Output != pd.out {
			t.Fatal("beacon value mismatch")
		}
	} else if !pd.res.Plain.Equal(pd.plain) {
		t.Fatal("decryption mismatch")
	}
}

// TestDecryptOwnShareNeverLeaves: the aggregator's own share enters the
// combine without a proof, is sent to nobody, never enters the peer
// partial cache and is counted in PeerItems like every other self item;
// the flush asks exactly t peers, and a peer that asks for the same
// digest still gets a fully proved partial.
func TestDecryptOwnShareNeverLeaves(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			rig := newTestRigOn(t, gr, 3, 1, nil)
			pd := rig.startDecrypt(t, 1)
			if parts := rig.svc.keys[1].inflight[pd.digest].decParts; len(parts) != 0 {
				t.Fatalf("own share recorded as a partial: %v", parts)
			}
			if len(rig.sends) != 1 {
				t.Fatalf("flush asked %d peers, want t = 1", len(rig.sends))
			}
			rig.answer(t, pd, 2, rig.keyP.EvalInt(2), rig.keyV, nil)
			pd.check(t)
			for _, s := range rig.sends {
				if _, ok := s.body.(*PartialReq); !ok {
					t.Fatalf("aggregator sent %T to %d", s.body, s.to)
				}
			}
			if _, ok := rig.svc.keys[1].partials.get(pd.digest); ok {
				t.Fatal("own share cached in the peer partial cache")
			}
			if st := rig.svc.Stats(); st.PeerItems != 1 {
				t.Fatalf("own item not counted once: %+v", st)
			}

			rig.svc.HandleMessage(3, &PartialReq{Key: 1, Items: []ReqItem{
				{Digest: pd.digest, Op: OpDecrypt, Payload: encodeCiphertext(rig.gr, pd.ct)},
			}})
			resp := rig.lastRespTo(3)
			if resp == nil || resp.Items[0].Status != StOK || resp.Items[0].E == nil {
				t.Fatalf("peer got no proved partial: %+v", resp)
			}
			it := resp.Items[0]
			if !thresh.VerifyPartialDecryption(rig.gr, rig.keyV, pd.ct, thresh.PartialDecryption{
				Decryptor: 1, D: it.D, Proof: thresh.DLEQProof{E: it.E, Z: it.Z},
			}) {
				t.Fatal("partial served to a peer does not verify")
			}
		})
	}
}

// TestDecryptMalformedPartialEvicts: an OK item with a missing or
// out-of-range field is a bad partial — its sender is evicted and the
// request completes from the others.
func TestDecryptMalformedPartialEvicts(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			for i, tamper := range []func(*RespItem){
				func(it *RespItem) { it.D = nil },
				func(it *RespItem) { it.E = nil },
				func(it *RespItem) { it.Z = gr.Q() },
			} {
				rig := newTestRigOn(t, gr, 3, 1, nil)
				pd := rig.startDecrypt(t, uint64(10+i))
				rig.answer(t, pd, 2, rig.keyP.EvalInt(2), rig.keyV, tamper)
				if st := rig.svc.Stats(); st.Evicted != 1 || !rig.svc.keys[1].suspects[2] {
					t.Fatalf("case %d: malformed partial not evicted: %+v", i, st)
				}
				rig.answer(t, pd, 3, rig.keyP.EvalInt(3), rig.keyV, nil)
				pd.check(t)
			}
		})
	}
}

// TestSignMalformedPartialEvicts is the signing counterpart: a nil or
// non-scalar z, or one under a nonce ID the attempt never gave its
// sender, evicts the sender, and a new attempt completes without it.
func TestSignMalformedPartialEvicts(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			for i, tamper := range []func(*RespItem){
				func(it *RespItem) { it.Sigma = nil },
				func(it *RespItem) { it.Sigma = gr.Q() },
				func(it *RespItem) { it.Nonce++ },
			} {
				rig := newTestRigOn(t, gr, 3, 1, nil)
				message := []byte("malformed partials")
				var res Result
				var rerr error
				done := false
				if err := rig.svc.Sign(1, message, func(r Result, err error) { res, rerr, done = r, err, true }); err != nil {
					t.Fatal(err)
				}
				pairs2 := rig.issue(t, 2, 2)
				rig.svc.Flush(1)
				rig.answerSigns(t, 2, pairs2, tamper)
				if st := rig.svc.Stats(); st.Evicted != 1 || !rig.svc.keys[1].suspects[2] {
					t.Fatalf("case %d: malformed partial not evicted: %+v", i, st)
				}
				pairs3 := rig.issue(t, 3, 2)
				rig.answerSigns(t, 3, pairs3, nil)
				if !done || rerr != nil || !thresh.Verify(rig.gr, rig.keyV.PublicKey(), message, res.Sig) {
					t.Fatalf("case %d: sign did not complete: done=%v err=%v", i, done, rerr)
				}
				if st := rig.svc.Stats(); st.SignAttempts != 1 {
					t.Fatalf("case %d: %d retries, want 1", i, st.SignAttempts)
				}
			}
		})
	}
}

// TestDecryptRenewalDropsPublicShares: after a renewal re-install, a
// partial proved under the old epoch is rejected. With the V(i) memo of
// the old epoch still in place it would verify and combine into a wrong
// plaintext. It passes under the previous epoch's V(i), so it is dropped
// without blame and its sender is asked again on the next tick; a
// partial wrong under both epochs still evicts its sender.
func TestDecryptRenewalDropsPublicShares(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			rig := newTestRigOn(t, gr, 3, 1, nil)
			oldP, oldV := rig.keyP, rig.keyV
			pd := rig.startDecrypt(t, 20)
			rig.answer(t, pd, 2, oldP.EvalInt(2), oldV, nil)
			pd.check(t)

			newP, err := poly.NewRandomWithConstant(rig.gr.Q(), oldP.Secret(), 1, randutil.NewReader(21))
			if err != nil {
				t.Fatal(err)
			}
			rig.keyP, rig.keyV = newP, commit.NewVector(rig.gr, newP)
			if _, err := rig.svc.InstallKey(1, newP.EvalInt(1), rig.keyV); err != nil {
				t.Fatal(err)
			}
			pd = rig.startDecrypt(t, 22)
			rig.answer(t, pd, 2, oldP.EvalInt(2), oldV, nil)
			if *pd.done || rig.svc.Stats().Evicted != 0 {
				t.Fatalf("old-epoch partial accepted or blamed: done=%v stats=%+v", *pd.done, rig.svc.Stats())
			}
			rig.sends = nil
			rig.svc.Kick(1)
			if !slices.ContainsFunc(rig.sends, func(s sent) bool { return s.to == 2 }) {
				t.Fatalf("the late peer is not asked again: %v", rig.sends)
			}
			rig.answer(t, pd, 3, newP.EvalInt(3), rig.keyV, nil)
			pd.check(t)

			pd = rig.startDecrypt(t, 23)
			rig.answer(t, pd, 2, oldP.EvalInt(2), oldV, func(it *RespItem) { it.Z = rig.gr.AddQ(it.Z, big.NewInt(1)) })
			if *pd.done || rig.svc.Stats().Evicted != 1 {
				t.Fatalf("partial wrong under both epochs not evicted: done=%v stats=%+v", *pd.done, rig.svc.Stats())
			}
			rig.answer(t, pd, 3, newP.EvalInt(3), rig.keyV, nil)
			pd.check(t)
		})
	}
}

// TestDecryptRenewalMidFlight: a decrypt, and a beacon round, flushed
// under the old epoch, whose peers answer only after a renewal
// re-install, still yield the right plaintext and the round's value. The
// own share recorded at flush is trusted without a proof, so it must
// follow the key into the new epoch; combined with new-epoch peer
// partials, an old-epoch own share would interpolate to a wrong C1^s.
// The beacon round combines to H_r^s of the old epoch's secret, which
// the renewal keeps.
func TestDecryptRenewalMidFlight(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			rig := newTestRigOn(t, gr, 5, 2, nil)
			oldP := rig.keyP
			pd := rig.startDecrypt(t, 30)
			pb := rig.startBeacon(t, 8)
			newP, err := poly.NewRandomWithConstant(rig.gr.Q(), oldP.Secret(), 2, randutil.NewReader(31))
			if err != nil {
				t.Fatal(err)
			}
			rig.keyP, rig.keyV = newP, commit.NewVector(rig.gr, newP)
			if _, err := rig.svc.InstallKey(1, newP.EvalInt(1), rig.keyV); err != nil {
				t.Fatal(err)
			}
			for _, p := range []pendingDecrypt{pd, pb} {
				rig.answer(t, p, 2, newP.EvalInt(2), rig.keyV, nil)
				rig.answer(t, p, 3, newP.EvalInt(3), rig.keyV, nil)
				p.check(t)
			}
			if st := rig.svc.Stats(); st.Evicted != 0 {
				t.Fatalf("honest new-epoch peers evicted: %+v", st)
			}
		})
	}
}

// TestDecryptRenewalForgivesEarlyPeer: a peer that renews before the
// aggregator answers under its new share. The partial fails under both
// V(j) the aggregator knows, so the peer is evicted; once the
// aggregator installs the renewal too, the peer is asked again and the
// decrypt completes from its answer. A partial wrong under the new
// epoch still evicts.
func TestDecryptRenewalForgivesEarlyPeer(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			rig := newTestRigOn(t, gr, 3, 1, nil)
			newP, err := poly.NewRandomWithConstant(rig.gr.Q(), rig.keyP.Secret(), 1, randutil.NewReader(41))
			if err != nil {
				t.Fatal(err)
			}
			newV := commit.NewVector(rig.gr, newP)
			pd := rig.startDecrypt(t, 40)
			rig.answer(t, pd, 2, newP.EvalInt(2), newV, nil)
			if *pd.done || rig.svc.Stats().Evicted != 1 || !rig.svc.keys[1].suspects[2] {
				t.Fatalf("renewed peer's partial not evicted before the re-install: done=%v stats=%+v", *pd.done, rig.svc.Stats())
			}

			rig.keyP, rig.keyV = newP, newV
			if _, err := rig.svc.InstallKey(1, newP.EvalInt(1), newV); err != nil {
				t.Fatal(err)
			}
			rig.sends = nil
			rig.svc.Kick(1)
			if !slices.ContainsFunc(rig.sends, func(s sent) bool { return s.to == 2 }) {
				t.Fatalf("the renewed peer is not asked again: %v", rig.sends)
			}
			rig.answer(t, pd, 2, newP.EvalInt(2), newV, nil)
			pd.check(t)

			pd = rig.startDecrypt(t, 42)
			rig.answer(t, pd, 2, newP.EvalInt(2), newV, func(it *RespItem) { it.Z = rig.gr.AddQ(it.Z, big.NewInt(1)) })
			if *pd.done || rig.svc.Stats().Evicted != 2 || !rig.svc.keys[1].suspects[2] {
				t.Fatalf("partial wrong under the new epoch not evicted: done=%v stats=%+v", *pd.done, rig.svc.Stats())
			}
			rig.answer(t, pd, 3, newP.EvalInt(3), newV, nil)
			pd.check(t)
		})
	}
}
