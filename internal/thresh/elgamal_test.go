package thresh_test

import (
	"errors"
	"io"
	"math/big"
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

var backends = []*group.Group{group.P256(), group.Test256()}

// ladderProve and ladderVerify are the earlier formulations of the DLEQ
// proof, which evaluate V(i) per call and invert (a1 = g^z·(Y^e)^{−1}).
// They are the reference the cores must agree with verdict for verdict,
// and a source of partials the cores must accept.
func ladderProve(gr *group.Group, key thresh.KeyShare, ct thresh.Ciphertext, rand io.Reader) thresh.PartialDecryption {
	d := gr.Exp(ct.C1, key.Share)
	w, err := gr.RandNonZeroScalar(rand)
	if err != nil {
		panic(err)
	}
	a1, a2 := gr.GExp(w), gr.Exp(ct.C1, w)
	y := key.V.Eval(int64(key.Self))
	e := gr.HashToScalar("hybriddkg/thresh-dleq/v1", y.Bytes(), ct.C1.Bytes(), d.Bytes(), a1.Bytes(), a2.Bytes())
	return thresh.PartialDecryption{Decryptor: key.Self, D: d,
		Proof: thresh.DLEQProof{E: e, Z: gr.AddQ(w, gr.MulQ(e, key.Share))}}
}

func ladderVerify(gr *group.Group, y, h group.Element, pd thresh.PartialDecryption) bool {
	if pd.D == nil || pd.Proof.E == nil || pd.Proof.Z == nil ||
		!gr.IsElement(pd.D) || !gr.IsScalar(pd.Proof.E) || !gr.IsScalar(pd.Proof.Z) {
		return false
	}
	yInvE, err := gr.Inv(gr.Exp(y, pd.Proof.E))
	if err != nil {
		return false
	}
	dInvE, err := gr.Inv(gr.Exp(pd.D, pd.Proof.E))
	if err != nil {
		return false
	}
	a1 := gr.Mul(gr.GExp(pd.Proof.Z), yInvE)
	a2 := gr.Mul(gr.Exp(h, pd.Proof.Z), dInvE)
	e := gr.HashToScalar("hybriddkg/thresh-dleq/v1", y.Bytes(), h.Bytes(), pd.D.Bytes(), a1.Bytes(), a2.Bytes())
	return e.Cmp(pd.Proof.E) == 0
}

// TestDecryptionCoreMatchesLadder: the proving and verifying cores
// accept and reject exactly as the ladder formulation does, for honest
// and forged partials, with and without a comb on the decryptor's
// public share, and partials proved the ladder way still verify.
func TestDecryptionCoreMatchesLadder(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			keys, keyV := dealKey(t, gr, 2, 40)
			rng := randutil.NewReader(41)
			m := gr.GExp(big.NewInt(31337))
			ct, err := thresh.Encrypt(gr, keyV.PublicKey(), m, rng)
			if err != nil {
				t.Fatal(err)
			}
			ct2, err := thresh.Encrypt(gr, keyV.PublicKey(), m, rng)
			if err != nil {
				t.Fatal(err)
			}
			core, err := thresh.ProveDecryption(gr, 3, keys[3].Share, keyV.Eval(3), ct.C1, rng)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := thresh.PartialDecrypt(gr, keys[3], ct, rng)
			if err != nil {
				t.Fatal(err)
			}
			ladder := ladderProve(gr, keys[3], ct, rng)
			beacon := thresh.Ciphertext{C1: thresh.BeaconBase(gr, keyV.PublicKey(), 5)}
			coin, err := thresh.ProveDecryption(gr, 3, keys[3].Share, keyV.Eval(3), beacon.C1, rng)
			if err != nil {
				t.Fatal(err)
			}
			forge := func(pd thresh.PartialDecryption, f func(*thresh.PartialDecryption)) thresh.PartialDecryption {
				f(&pd)
				return pd
			}
			one := big.NewInt(1)
			cases := []struct {
				name string
				ct   thresh.Ciphertext
				pd   thresh.PartialDecryption
				want bool
			}{
				{"honest core", ct, core, true},
				{"honest wrapper", ct, wrapped, true},
				{"honest ladder", ct, ladder, true},
				{"honest beacon", beacon, coin, true},
				{"D = identity", ct, forge(core, func(p *thresh.PartialDecryption) { p.D = gr.Identity() }), false},
				{"forged D", ct, forge(core, func(p *thresh.PartialDecryption) { p.D = gr.Mul(p.D, gr.Generator()) }), false},
				{"forged E", ct, forge(core, func(p *thresh.PartialDecryption) { p.Proof.E = gr.AddQ(p.Proof.E, one) }), false},
				{"forged Z", ct, forge(core, func(p *thresh.PartialDecryption) { p.Proof.Z = gr.AddQ(p.Proof.Z, one) }), false},
				{"nil Z", ct, forge(core, func(p *thresh.PartialDecryption) { p.Proof.Z = nil }), false},
				{"out-of-range E", ct, forge(core, func(p *thresh.PartialDecryption) { p.Proof.E = gr.Q() }), false},
				{"wrong decryptor", ct, forge(core, func(p *thresh.PartialDecryption) { p.Decryptor = 4 }), false},
				{"wrong ciphertext", ct2, core, false},
			}
			for i, vg := range combedPair(t, gr.Name(), keyV.Eval(3)) {
				for _, c := range cases {
					ref := ladderVerify(vg, keyV.Eval(int64(c.pd.Decryptor)), c.ct.C1, c.pd)
					got := thresh.VerifyPartialDecryption(vg, keyV, c.ct, c.pd)
					core := thresh.VerifyDecryption(vg, keyV.Eval(int64(c.pd.Decryptor)), c.ct.C1, c.pd)
					if ref != c.want || got != c.want || core != c.want {
						t.Errorf("%s (comb on y %v): ladder %v, wrapper %v, core %v, want %v", c.name, i == 1, ref, got, core, c.want)
					}
				}
			}
			if !ladderVerify(gr, keyV.Eval(3), ct.C1, core) {
				t.Error("ladder verifier rejects a core-proved partial")
			}
		})
	}
}

// combedPair returns two fresh groups of backend name, the second with
// comb (or fixed-base) tables for y, so VerifyDecryption is checked on
// both of y's paths.
func combedPair(tb testing.TB, name string, y group.Element) [2]*group.Group {
	tb.Helper()
	var out [2]*group.Group
	for i := range out {
		gr, err := group.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = gr
	}
	out[1].Precompute(y)
	return out
}

// FuzzVerifyDecryption: on arbitrary E, Z and D, around an honest
// proof, the multi-exp verifier, with and without a comb on y, agrees
// with the ladder reference.
func FuzzVerifyDecryption(f *testing.F) {
	type fixture struct {
		grs   [2]*group.Group
		y, h  group.Element
		proof thresh.PartialDecryption
	}
	var fx []fixture
	for _, gr := range backends {
		p, err := poly.NewRandom(gr.Q(), 1, randutil.NewReader(48))
		if err != nil {
			f.Fatal(err)
		}
		rng := randutil.NewReader(49)
		y := gr.GExp(p.EvalInt(2))
		h := gr.HashToElement("hybriddkg/fuzz-dleq", []byte(gr.Name()))
		pd, err := thresh.ProveDecryption(gr, 2, p.EvalInt(2), y, h, rng)
		if err != nil {
			f.Fatal(err)
		}
		fx = append(fx, fixture{combedPair(f, gr.Name(), y), y, h, pd})
		f.Add(uint8(len(fx)-1), pd.Proof.E.Bytes(), pd.Proof.Z.Bytes(), gr.EncodeCompressed(pd.D))
		f.Add(uint8(len(fx)-1), pd.Proof.E.Bytes(), []byte{1}, gr.EncodeCompressed(gr.Identity()))
	}
	f.Fuzz(func(t *testing.T, which uint8, e, z, d []byte) {
		x := fx[int(which)%len(fx)]
		pd := x.proof
		pd.Proof.E, pd.Proof.Z = new(big.Int).SetBytes(e), new(big.Int).SetBytes(z)
		D, err := x.grs[0].DecodeCompressed(d)
		if err != nil {
			return
		}
		pd.D = D
		want := ladderVerify(x.grs[0], x.y, x.h, pd)
		for i, gr := range x.grs {
			if got := thresh.VerifyDecryption(gr, x.y, x.h, pd); got != want {
				t.Fatalf("comb on y %v: verifier %v, ladder %v", i == 1, got, want)
			}
		}
	})
}

// TestCombineDecryptVerifiesEachDecryptorOnce: verification stops at
// t+1 valid partials, a repeated decryptor is checked once, and every
// checked bad decryptor is named.
func TestCombineDecryptVerifiesEachDecryptorOnce(t *testing.T) {
	for _, gr := range backends {
		t.Run(gr.Name(), func(t *testing.T) {
			const tt = 2
			keys, keyV := dealKey(t, gr, tt, 44)
			rng := randutil.NewReader(45)
			m := gr.GExp(big.NewInt(1234))
			ct, err := thresh.Encrypt(gr, keyV.PublicKey(), m, rng)
			if err != nil {
				t.Fatal(err)
			}
			pds := map[msg.NodeID]thresh.PartialDecryption{}
			for i := msg.NodeID(1); i <= 7; i++ {
				if pds[i], err = thresh.PartialDecrypt(gr, keys[i], ct, rng); err != nil {
					t.Fatal(err)
				}
			}
			bad := func(i msg.NodeID) thresh.PartialDecryption {
				pd := pds[i]
				pd.Proof.Z = gr.AddQ(pd.Proof.Z, big.NewInt(1))
				return pd
			}
			looked := map[msg.NodeID]int{}
			pub := func(id msg.NodeID) group.Element { looked[id]++; return keyV.Eval(int64(id)) }

			// Bad 5 twice, then its honest partial, then 1, 2, 3 and a bad 6
			// past the threshold: 5 is checked once, 6 never.
			parts := []thresh.PartialDecryption{bad(5), bad(5), pds[5], pds[1], pds[2], pds[3], bad(6)}
			got, err := thresh.CombineDecryptWith(gr, tt, ct, parts, pub, poly.NewLagrangeCache(gr.Q(), 0))
			if err != nil || !got.Equal(m) {
				t.Fatalf("combine: %v", err)
			}
			want := map[msg.NodeID]int{5: 1, 1: 1, 2: 1, 3: 1}
			if len(looked) != len(want) {
				t.Fatalf("verified %v, want %v", looked, want)
			}
			for id, n := range want {
				if looked[id] != n {
					t.Fatalf("verified %v, want %v", looked, want)
				}
			}

			// Not enough: every checked bad decryptor is named, once.
			parts = []thresh.PartialDecryption{bad(4), pds[1], bad(6), bad(4), pds[2]}
			_, err = thresh.CombineDecrypt(gr, keyV, tt, ct, parts)
			var pe *thresh.PartialsError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *thresh.PartialsError", err)
			}
			if len(pe.Bad) != 2 || pe.Bad[0] != 4 || pe.Bad[1] != 6 || pe.Valid != 2 {
				t.Fatalf("PartialsError = %+v, want Bad [4 6], Valid 2", pe)
			}
		})
	}
}
