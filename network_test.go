package hybriddkg_test

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"hybriddkg"
)

func TestNetworkKeyLifecycle(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 7, T: 2}, hybriddkg.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()

	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if key.State() != hybriddkg.KeyReady {
		t.Fatalf("fresh key state = %v, want ready", key.State())
	}

	message := []byte("one key, many operations")
	sig, err := key.Sign(ctx, message)
	if err != nil {
		t.Fatal(err)
	}
	if !key.Verify(message, sig) {
		t.Fatal("signature rejected")
	}
	if key.Verify([]byte("other"), sig) {
		t.Fatal("signature accepted for wrong message")
	}
	if key.State() != hybriddkg.KeyServing {
		t.Fatalf("post-sign state = %v, want serving", key.State())
	}

	m := net.Group().GExp(big.NewInt(424242))
	ct, err := key.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(ctx, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("decrypt mismatch")
	}

	var prev [32]byte
	for round := uint64(1); round <= 2; round++ {
		out, err := key.Beacon(ctx, round)
		if err != nil {
			t.Fatalf("beacon round %d: %v", round, err)
		}
		if out.Output == prev {
			t.Fatalf("round %d repeated the previous output", round)
		}
		prev = out.Output
	}

	// Two keys serve independently.
	key2, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if key2.PublicKey().Equal(key.PublicKey()) {
		t.Fatal("two DKGs produced the same key")
	}
	sig2, err := key2.Sign(ctx, message)
	if err != nil {
		t.Fatal(err)
	}
	if !key2.Verify(message, sig2) || key.Verify(message, sig2) {
		t.Fatal("keys are not independent")
	}

	// Retiring sheds new work but the other key keeps serving.
	key.Retire()
	if key.State() != hybriddkg.KeyRetiring {
		t.Fatalf("state after Retire = %v", key.State())
	}
	if _, err := key.Sign(ctx, []byte("too late")); !errors.Is(err, hybriddkg.ErrRetiring) {
		t.Fatalf("retiring key accepted work: %v", err)
	}
	if _, err := key2.Sign(ctx, []byte("still open")); err != nil {
		t.Fatalf("unrelated key affected by retirement: %v", err)
	}
}

func TestNetworkSignBatch(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1},
		hybriddkg.WithSeed(22), hybriddkg.WithNonceReservoir(8), hybriddkg.WithBatchWindow(64))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()

	key, err := net.GenerateKey(ctx, hybriddkg.WithEagerServing())
	if err != nil {
		t.Fatal(err)
	}
	if key.State() != hybriddkg.KeyServing {
		t.Fatalf("eager key state = %v, want serving", key.State())
	}
	msgs := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	sigs, err := key.SignBatch(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sg := range sigs {
		if !key.Verify(msgs[i], sg) {
			t.Fatalf("batch signature %d rejected", i)
		}
		for j := 0; j < i; j++ {
			if sigs[j].R.Equal(sg.R) {
				t.Fatalf("signatures %d and %d share a nonce", j, i)
			}
		}
	}
	st := net.ServiceStats(1)
	if st.Batches != 1 || st.Items != uint64(len(msgs)) {
		t.Fatalf("batch accounting: %+v", st)
	}
}

func TestNetworkOptionsCompose(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1},
		hybriddkg.WithSeed(23),
		hybriddkg.WithGroup("p256"),
		hybriddkg.WithHashedEcho(),
		hybriddkg.WithDedupDealings(),
		hybriddkg.WithCompressedWire(),
		hybriddkg.WithParallelVerify(2))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	key, err := net.GenerateKey(ctx, hybriddkg.WithAggregator(3))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := key.Sign(ctx, []byte("composed"))
	if err != nil {
		t.Fatal(err)
	}
	if !key.Verify([]byte("composed"), sig) {
		t.Fatal("signature rejected")
	}
	if ps, ok := net.VerifyStats(); !ok || ps.Workers != 2 {
		t.Fatalf("verify pool not wired: %+v ok=%v", ps, ok)
	}
	// Node 3 did the aggregating.
	if net.ServiceStats(3).Requests == 0 {
		t.Fatal("pinned aggregator saw no requests")
	}
	if net.ServiceStats(1).Requests != 0 {
		t.Fatal("default aggregator used despite pin")
	}
}

func TestNetworkAdmissionShed(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1},
		hybriddkg.WithSeed(24), hybriddkg.WithAdmission(0, 0, 1), hybriddkg.WithBatchWindow(64))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single pending slot without pumping, then overflow it.
	msgs := [][]byte{[]byte("first"), []byte("second")}
	_, err = key.SignBatch(ctx, msgs)
	if !errors.Is(err, hybriddkg.ErrOverloaded) {
		t.Fatalf("overflow not shed: %v", err)
	}
	if net.ServiceStats(1).Shed != 1 {
		t.Fatalf("stats: %+v", net.ServiceStats(1))
	}
}

func TestNetworkContextCancellation(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1}, hybriddkg.WithSeed(25))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.GenerateKey(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GenerateKey: %v", err)
	}
}

// TestNetworkSignBatchWidensNonceSessions: forty signatures asked for at
// once starve the default reservoir, so the key's auxiliary DKGs — real
// sessions on the simulated network — grow from one nonce each to
// sixteen. Every signature verifies and no two share a nonce.
func TestNetworkSignBatchWidensNonceSessions(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1},
		hybriddkg.WithSeed(23), hybriddkg.WithDedupDealings(), hybriddkg.WithCompressedWire())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]byte, 40)
	for i := range msgs {
		msgs[i] = []byte{'m', byte(i)}
	}
	before := net.Stats().TotalMsgs
	sigs, err := key.SignBatch(ctx, msgs)
	if err != nil {
		t.Fatal(err)
	}
	nonces := map[string]bool{}
	for i, sg := range sigs {
		if !key.Verify(msgs[i], sg) {
			t.Fatalf("signature %d rejected", i)
		}
		nonces[sg.R.String()] = true
	}
	if len(nonces) != len(msgs) {
		t.Fatalf("%d distinct nonces under %d signatures", len(nonces), len(msgs))
	}
	// One DKG per nonce would cost ≈ 300 messages a signature at n=4.
	perSig := (net.Stats().TotalMsgs - before) / len(msgs)
	t.Logf("%d messages per signature", perSig)
	if perSig > 150 {
		t.Fatalf("%d messages per signature: nonce sessions did not batch", perSig)
	}
}
