package hybriddkg_test

// Protocol-level backend conformance: every registered group backend
// is run through the same end-to-end battery — Pedersen binding, a
// full HybridVSS sharing, a dedup sharing and DKGs over the flood and
// over certificates, and a §6.2 node addition. The
// backend the façade serves (p256) additionally runs a complete DKG
// with threshold Schnorr signing, ElGamal decryption and one proactive
// renewal phase through New. Group-axiom and encoding conformance
// lives in internal/group/conformance_test.go; together they mean a
// new backend gets the whole battery by registering in group.Names().

import (
	"context"
	"math/big"
	"testing"

	"hybriddkg"
	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
)

func TestProtocolConformance(t *testing.T) {
	for _, name := range group.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == "prod2048" && testing.Short() {
				t.Skip("2048-bit cluster runs are slow; skipped in -short mode")
			}
			gr, err := group.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("pedersen-binding", func(t *testing.T) { conformPedersen(t, gr) })
			t.Run("vss", func(t *testing.T) { conformVSS(t, gr) })
			t.Run("width", func(t *testing.T) { conformWidth(t, gr) })
			if name == "p256" { // the one backend New and Serve run
				t.Run("cluster", conformCluster)
			}
			t.Run("addition", func(t *testing.T) { conformAddition(t, gr) })
		})
	}
}

// conformPedersen checks that Pedersen openings verify and that
// tampering with either the share or the blinding breaks them.
func conformPedersen(t *testing.T, gr *group.Group) {
	h := commit.PedersenH(gr)
	if !gr.IsElement(h) {
		t.Fatal("Pedersen h not a group element")
	}
	r := randutil.NewReader(31)
	a, _ := poly.NewRandom(gr.Q(), 3, r)
	b, _ := poly.NewRandom(gr.Q(), 3, r)
	pv, err := commit.NewPedersenVector(gr, h, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if !pv.VerifyShare(i, a.EvalInt(i), b.EvalInt(i)) {
			t.Fatalf("honest opening %d rejected", i)
		}
		if pv.VerifyShare(i, gr.AddQ(a.EvalInt(i), big.NewInt(1)), b.EvalInt(i)) {
			t.Fatalf("tampered share %d accepted", i)
		}
		if pv.VerifyShare(i, a.EvalInt(i), gr.AddQ(b.EvalInt(i), big.NewInt(1))) {
			t.Fatalf("tampered blinding %d accepted", i)
		}
	}
}

// conformVSS runs one complete HybridVSS sharing over the backend.
func conformVSS(t *testing.T, gr *group.Group) {
	res, err := harness.RunVSS(harness.VSSOptions{N: 7, T: 2, Seed: 32, Group: gr})
	if err != nil {
		t.Fatal(err)
	}
	if res.HonestDone() != 7 {
		t.Fatalf("VSS completed on %d/7 nodes", res.HonestDone())
	}
}

// conformWidth runs a sharing of one secret per dealer, the only width
// sessions have, with dedup and compressed matrices, and a whole DKG
// over the flood and over quorum certificates: every node must finish
// with one consistent key pair.
func conformWidth(t *testing.T, gr *group.Group) {
	vres, err := harness.RunVSS(harness.VSSOptions{N: 4, T: 1, Seed: 36, Group: gr, DedupDealings: true, CompressedWire: true})
	if err != nil {
		t.Fatal(err)
	}
	if vres.HonestDone() != 4 {
		t.Fatalf("VSS completed on %d/4 nodes", vres.HonestDone())
	}
	if err := vres.CheckConsistency(true); err != nil {
		t.Fatalf("VSS: %v", err)
	}
	for _, certs := range []bool{false, true} {
		dres, err := harness.RunDKG(harness.DKGOptions{
			N: 4, T: 1, Seed: 37, Group: gr, Certificates: certs,
			HashedEcho: true, DedupDealings: true, CompressedWire: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if dres.HonestDone() != 4 {
			t.Fatalf("certificates %v: DKG completed on %d/4 nodes", certs, dres.HonestDone())
		}
		if err := dres.CheckConsistency(); err != nil {
			t.Fatalf("certificates %v: %v", certs, err)
		}
		dres.Close()
	}
}

// conformCluster drives the façade end to end: DKG, threshold Schnorr
// signing, ElGamal encryption/decryption, and a proactive renewal that
// must preserve the public key while replacing every share.
func conformCluster(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1}, hybriddkg.WithSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatalf("DKG: %v", err)
	}
	for id, share := range key.Shares() {
		if !key.Commitment().VerifyShare(int64(id), share) {
			t.Fatalf("share %d does not verify", id)
		}
	}

	message := []byte("backend conformance")
	sig, err := key.Sign(ctx, message)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if !key.Verify(message, sig) {
		t.Fatal("signature rejected")
	}
	if key.Verify([]byte("other"), sig) {
		t.Fatal("signature verified for wrong message")
	}

	m := net.Group().GExp(big.NewInt(123456))
	ct, err := key.Encrypt(m)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	got, err := key.Decrypt(ctx, ct)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if !got.Equal(m) {
		t.Fatal("decryption mismatch")
	}

	pkBefore := key.PublicKey()
	oldShare := key.Shares()[1]
	if err := key.Renew(ctx); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if !key.PublicKey().Equal(pkBefore) {
		t.Fatal("renewal changed the public key")
	}
	if key.Shares()[1].Cmp(oldShare) == 0 {
		t.Fatal("renewal did not replace the share")
	}
	secret, err := key.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !net.Group().GExp(secret).Equal(key.PublicKey()) {
		t.Fatal("renewed shares do not interpolate to the committed secret")
	}
}

// conformAddition runs a DKG followed by the §6.2 node-addition
// protocol (group modification) over the backend.
func conformAddition(t *testing.T, gr *group.Group) {
	const n, tt = 4, 1
	dres, err := harness.RunDKG(harness.DKGOptions{N: n, T: tt, Seed: 34, Group: gr})
	if err != nil {
		t.Fatal(err)
	}
	if dres.HonestDone() != n {
		t.Fatalf("DKG completed on %d/%d nodes", dres.HonestDone(), n)
	}
	if err := harness.RunAddition(dres, msg.NodeID(n+1), 35); err != nil {
		t.Fatalf("addition: %v", err)
	}
}
