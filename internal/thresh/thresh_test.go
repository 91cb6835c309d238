package thresh_test

import (
	"errors"
	"math/big"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

// dealKey fabricates a shared key directly from a polynomial (unit
// tests); integration tests below use real DKG output instead.
func dealKey(t *testing.T, gr *group.Group, deg int, seed uint64) (map[msg.NodeID]thresh.KeyShare, *commit.Vector) {
	t.Helper()
	p, err := poly.NewRandom(gr.Q(), deg, randutil.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	v := commit.NewVector(gr, p)
	shares := make(map[msg.NodeID]thresh.KeyShare, 7)
	for i := msg.NodeID(1); i <= 7; i++ {
		shares[i] = thresh.KeyShare{Self: i, Share: p.EvalInt(int64(i)), V: v}
	}
	return shares, v
}

func TestThresholdSchnorrEndToEnd(t *testing.T) {
	gr := group.Test256()
	const tt = 2
	keys, keyV := dealKey(t, gr, tt, 1)
	nonces, nonceV := dealKey(t, gr, tt, 2)
	message := []byte("threshold-signed certificate")

	partials := make([]thresh.PartialSig, 0, 7)
	for i := msg.NodeID(1); i <= 7; i++ {
		p, err := thresh.PartialSign(gr, keys[i], nonces[i], message)
		if err != nil {
			t.Fatal(err)
		}
		if !thresh.VerifyPartial(gr, keyV, nonceV, message, p) {
			t.Fatalf("honest partial %d rejected", i)
		}
		partials = append(partials, p)
	}
	sig, err := thresh.Combine(gr, keyV, nonceV, tt, message, partials)
	if err != nil {
		t.Fatal(err)
	}
	if !thresh.Verify(gr, keyV.PublicKey(), message, sig) {
		t.Fatal("combined signature invalid")
	}
	if thresh.Verify(gr, keyV.PublicKey(), []byte("other"), sig) {
		t.Fatal("signature verified for wrong message")
	}
}

func TestSchnorrPartialRejection(t *testing.T) {
	gr := group.Test256()
	const tt = 2
	keys, keyV := dealKey(t, gr, tt, 3)
	nonces, nonceV := dealKey(t, gr, tt, 4)
	message := []byte("m")

	good, err := thresh.PartialSign(gr, keys[1], nonces[1], message)
	if err != nil {
		t.Fatal(err)
	}
	bad := thresh.PartialSig{Signer: 1, Sigma: gr.AddQ(good.Sigma, big.NewInt(1))}
	if thresh.VerifyPartial(gr, keyV, nonceV, message, bad) {
		t.Fatal("tampered partial accepted")
	}
	if thresh.VerifyPartial(gr, keyV, nonceV, message, thresh.PartialSig{Signer: 1}) {
		t.Fatal("nil partial accepted")
	}
	// Combine with t tampered partials and t+1 good ones: still works.
	partials := []thresh.PartialSig{bad}
	for i := msg.NodeID(2); i <= 7; i++ {
		p, err := thresh.PartialSign(gr, keys[i], nonces[i], message)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	if _, err := thresh.Combine(gr, keyV, nonceV, tt, message, partials); err != nil {
		t.Fatalf("combine with mixed partials: %v", err)
	}
	// Not enough valid partials fails.
	if _, err := thresh.Combine(gr, keyV, nonceV, tt, message, partials[:2]); err == nil {
		t.Fatal("combine with too few partials succeeded")
	}
}

func TestPartialSignGuards(t *testing.T) {
	gr := group.Test256()
	keys, _ := dealKey(t, gr, 2, 5)
	nonces, _ := dealKey(t, gr, 2, 6)
	// Mismatched signers.
	if _, err := thresh.PartialSign(gr, keys[1], nonces[2], []byte("m")); err == nil {
		t.Fatal("signer mismatch accepted")
	}
	// Corrupt key share.
	badKey := thresh.KeyShare{Self: 1, Share: big.NewInt(1), V: keys[1].V}
	if _, err := thresh.PartialSign(gr, badKey, nonces[1], []byte("m")); err == nil {
		t.Fatal("invalid key share accepted")
	}
}

func TestVerifyRejectsGarbage(t *testing.T) {
	gr := group.Test256()
	_, keyV := dealKey(t, gr, 2, 7)
	if thresh.Verify(gr, keyV.PublicKey(), []byte("m"), thresh.Signature{}) {
		t.Fatal("empty signature verified")
	}
	if thresh.Verify(gr, keyV.PublicKey(), []byte("m"), thresh.Signature{R: group.P256().Generator(), Sigma: big.NewInt(1)}) {
		t.Fatal("foreign-backend R verified")
	}
}

func TestElGamalEndToEnd(t *testing.T) {
	gr := group.Test256()
	const tt = 2
	keys, keyV := dealKey(t, gr, tt, 8)
	r := randutil.NewReader(9)
	// Message: random group element.
	x, err := gr.RandScalar(r)
	if err != nil {
		t.Fatal(err)
	}
	m := gr.GExp(x)
	ct, err := thresh.Encrypt(gr, keyV.PublicKey(), m, r)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]thresh.PartialDecryption, 0, 7)
	for i := msg.NodeID(1); i <= 7; i++ {
		pd, err := thresh.PartialDecrypt(gr, keys[i], ct, r)
		if err != nil {
			t.Fatal(err)
		}
		if !thresh.VerifyPartialDecryption(gr, keyV, ct, pd) {
			t.Fatalf("honest partial decryption %d rejected", i)
		}
		parts = append(parts, pd)
	}
	got, err := thresh.CombineDecrypt(gr, keyV, tt, ct, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("decryption mismatch")
	}
}

func TestElGamalRejectsForgedPartials(t *testing.T) {
	gr := group.Test256()
	const tt = 2
	keys, keyV := dealKey(t, gr, tt, 10)
	r := randutil.NewReader(11)
	m := gr.GExp(big.NewInt(424242))
	ct, err := thresh.Encrypt(gr, keyV.PublicKey(), m, r)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := thresh.PartialDecrypt(gr, keys[1], ct, r)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with D but keep the proof: must be rejected.
	forged := pd
	forged.D = gr.Mul(pd.D, gr.Generator())
	if thresh.VerifyPartialDecryption(gr, keyV, ct, forged) {
		t.Fatal("forged decryption share accepted")
	}
	// Proof from a different ciphertext: rejected.
	ct2, err := thresh.Encrypt(gr, keyV.PublicKey(), m, r)
	if err != nil {
		t.Fatal(err)
	}
	if thresh.VerifyPartialDecryption(gr, keyV, ct2, pd) {
		t.Fatal("replayed proof accepted for different ciphertext")
	}
	// Too few honest partials.
	if _, err := thresh.CombineDecrypt(gr, keyV, tt, ct, []thresh.PartialDecryption{pd}); err == nil {
		t.Fatal("combine with one partial succeeded")
	}
}

func TestEncryptRejectsNonElements(t *testing.T) {
	gr := group.Test256()
	r := randutil.NewReader(12)
	if _, err := thresh.Encrypt(gr, nil, gr.Generator(), r); err == nil {
		t.Fatal("nil pk accepted")
	}
	if _, err := thresh.Encrypt(gr, group.P256().Generator(), gr.Generator(), r); err == nil {
		t.Fatal("foreign-backend pk accepted")
	}
	if _, err := thresh.Encrypt(gr, gr.Generator(), nil, r); err == nil {
		t.Fatal("nil message accepted")
	}
}

// TestSchnorrOverRealDKG wires the whole stack: two DKG runs (key +
// nonce) on the simulated network, then threshold signing with the
// produced shares.
func TestSchnorrOverRealDKG(t *testing.T) {
	gr := group.Test256()
	const n, tt = 7, 2
	keyRun, err := harness.RunDKG(harness.DKGOptions{N: n, T: tt, Seed: 13, Group: gr})
	if err != nil {
		t.Fatal(err)
	}
	nonceRun, err := harness.RunDKG(harness.DKGOptions{N: n, T: tt, Seed: 14, Group: gr})
	if err != nil {
		t.Fatal(err)
	}
	if keyRun.HonestDone() != n || nonceRun.HonestDone() != n {
		t.Fatal("DKG incomplete")
	}
	keyV := keyRun.Completed[1].V
	nonceV := nonceRun.Completed[1].V
	message := []byte("signed by a dealerless quorum")
	partials := make([]thresh.PartialSig, 0, tt+1)
	for i := msg.NodeID(1); i <= tt+1; i++ {
		key := thresh.KeyShare{Self: i, Share: keyRun.Completed[i].Share, V: keyV}
		nonce := thresh.KeyShare{Self: i, Share: nonceRun.Completed[i].Share, V: nonceV}
		p, err := thresh.PartialSign(gr, key, nonce, message)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	sig, err := thresh.Combine(gr, keyV, nonceV, tt, message, partials)
	if err != nil {
		t.Fatal(err)
	}
	if !thresh.Verify(gr, keyV.PublicKey(), message, sig) {
		t.Fatal("signature over real DKG output invalid")
	}
}

func TestBeaconOutput(t *testing.T) {
	gr := group.Test256()
	a := thresh.BeaconOutput(gr, 1, big.NewInt(777))
	b := thresh.BeaconOutput(gr, 1, big.NewInt(777))
	if a != b {
		t.Fatal("beacon not deterministic")
	}
	c := thresh.BeaconOutput(gr, 2, big.NewInt(777))
	if a == c {
		t.Fatal("round not bound")
	}
	d := thresh.BeaconOutput(gr, 1, big.NewInt(778))
	if a == d {
		t.Fatal("opening not bound")
	}
	// BeaconBit is a function of the output.
	_ = thresh.BeaconBit(a)
}

func TestCombineReportsBadSigners(t *testing.T) {
	gr := group.Test256()
	const tt = 2
	keys, keyV := dealKey(t, gr, tt, 21)
	nonces, nonceV := dealKey(t, gr, tt, 22)
	message := []byte("m")

	// Two good partials (t+1 = 3 needed) plus two tampered ones: the
	// combine must fail and name exactly the tampered signers.
	var partials []thresh.PartialSig
	for i := msg.NodeID(1); i <= 2; i++ {
		p, err := thresh.PartialSign(gr, keys[i], nonces[i], message)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	for i := msg.NodeID(3); i <= 4; i++ {
		p, err := thresh.PartialSign(gr, keys[i], nonces[i], message)
		if err != nil {
			t.Fatal(err)
		}
		p.Sigma = gr.AddQ(p.Sigma, big.NewInt(1))
		partials = append(partials, p)
	}
	_, err := thresh.Combine(gr, keyV, nonceV, tt, message, partials)
	if err == nil {
		t.Fatal("combine succeeded with too few valid partials")
	}
	if !errors.Is(err, thresh.ErrNotEnough) {
		t.Fatalf("err = %v, want ErrNotEnough", err)
	}
	var pe *thresh.PartialsError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *thresh.PartialsError", err)
	}
	if len(pe.Bad) != 2 || pe.Bad[0] != 3 || pe.Bad[1] != 4 {
		t.Fatalf("Bad = %v, want [3 4]", pe.Bad)
	}
	if pe.Valid != 2 || pe.Needed != tt+1 {
		t.Fatalf("Valid/Needed = %d/%d, want 2/3", pe.Valid, pe.Needed)
	}
}

func TestCombineDecryptReportsBadDecryptors(t *testing.T) {
	gr := group.Test256()
	const tt = 2
	keys, keyV := dealKey(t, gr, tt, 23)
	rng := randutil.NewReader(24)
	m := gr.GExp(big.NewInt(777))
	ct, err := thresh.Encrypt(gr, keyV.PublicKey(), m, rng)
	if err != nil {
		t.Fatal(err)
	}
	var parts []thresh.PartialDecryption
	for i := msg.NodeID(1); i <= 2; i++ {
		pd, err := thresh.PartialDecrypt(gr, keys[i], ct, rng)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, pd)
	}
	pd, err := thresh.PartialDecrypt(gr, keys[5], ct, rng)
	if err != nil {
		t.Fatal(err)
	}
	pd.D = gr.Mul(pd.D, gr.Generator()) // breaks the DLEQ proof
	parts = append(parts, pd)
	_, err = thresh.CombineDecrypt(gr, keyV, tt, ct, parts)
	var pe *thresh.PartialsError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *thresh.PartialsError", err, err)
	}
	if len(pe.Bad) != 1 || pe.Bad[0] != 5 {
		t.Fatalf("Bad = %v, want [5]", pe.Bad)
	}
}

func TestPartialSignPreMatchesPartialSign(t *testing.T) {
	gr := group.Test256()
	const tt = 2
	keys, keyV := dealKey(t, gr, tt, 25)
	nonces, nonceV := dealKey(t, gr, tt, 26)
	message := []byte("hot path")
	c := thresh.Challenge(gr, nonceV.PublicKey(), keyV.PublicKey(), message)
	for i := msg.NodeID(1); i <= 7; i++ {
		slow, err := thresh.PartialSign(gr, keys[i], nonces[i], message)
		if err != nil {
			t.Fatal(err)
		}
		fast := thresh.PartialSignPre(gr, i, keys[i].Share, nonces[i].Share, c)
		if fast.Signer != slow.Signer || fast.Sigma.Cmp(slow.Sigma) != 0 {
			t.Fatalf("node %d: PartialSignPre diverges from PartialSign", i)
		}
	}
}
