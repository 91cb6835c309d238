package hybriddkg_test

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"hybriddkg"
	"hybriddkg/internal/msg"
)

// TestOptionsValidation: New and Serve reject the same rosters and
// profiles, before building anything.
func TestOptionsValidation(t *testing.T) {
	tests := []struct {
		name    string
		roster  hybriddkg.Roster
		opts    []hybriddkg.Option
		wantErr bool
	}{
		{name: "ok", roster: hybriddkg.Roster{N: 4, T: 1}},
		{name: "p256", roster: hybriddkg.Roster{N: 4, T: 1}, opts: []hybriddkg.Option{hybriddkg.WithGroup("p256")}},
		{name: "bound", roster: hybriddkg.Roster{N: 4, T: 2}, wantErr: true},
		{name: "zero n", roster: hybriddkg.Roster{}, wantErr: true},
		{name: "negative t", roster: hybriddkg.Roster{N: 4, T: -1}, wantErr: true},
		{name: "negative f", roster: hybriddkg.Roster{N: 4, T: 1, F: -1}, wantErr: true},
		{name: "bad group", roster: hybriddkg.Roster{N: 4, T: 1}, opts: []hybriddkg.Option{hybriddkg.WithGroup("test256")}, wantErr: true},
	}
	rings, err := hybriddkg.NewKeyRings(4, "ed25519")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			net, err := hybriddkg.New(tt.roster, tt.opts...)
			if (err != nil) != tt.wantErr || (err != nil && !errors.Is(err, hybriddkg.ErrBadOptions)) {
				t.Fatalf("New error = %v, wantErr = %v", err, tt.wantErr)
			}
			if net != nil {
				net.Close()
			}
			peers := make([]hybriddkg.PeerAddr, 4)
			for i := range peers {
				peers[i] = hybriddkg.PeerAddr{ID: hybriddkg.NodeID(i + 1), Addr: fmt.Sprintf("127.0.0.1:%d", i+1)}
			}
			srv, err := hybriddkg.Serve(hybriddkg.ServerConfig{
				Self: 1, Roster: tt.roster, Listen: "127.0.0.1:0", Peers: peers, Keys: rings[0],
			}, tt.opts...)
			if (err != nil) != tt.wantErr || (err != nil && !errors.Is(err, hybriddkg.ErrBadOptions)) {
				t.Fatalf("Serve error = %v, wantErr = %v", err, tt.wantErr)
			}
			if srv != nil {
				srv.Close()
			}
		})
	}
}

// TestNewRunsShippedProfile: bare New runs the profile the benchmark
// measures — P-256, and wire format v2, whose echoes reference the
// dealer's commitment matrix by digest instead of carrying it.
func TestNewRunsShippedProfile(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 7, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if name := net.Group().Name(); name != "p256" {
		t.Fatalf("group %q, want p256", name)
	}
	if _, err := net.GenerateKey(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	count, bytes := st.MsgCount[msg.TVSSEcho], st.MsgBytes[msg.TVSSEcho]
	if count == 0 {
		t.Fatal("no vss-echo traffic")
	}
	// A full-matrix echo at n=7, t=2 is ≈ 350 B; a digest echo ≈ 100 B.
	if per := bytes / int64(count); per >= 128 {
		t.Fatalf("vss-echo carries %d B per message: commitments not deduplicated", per)
	}
}

// TestGenerateKeyAndSign: a fresh key's shares match its commitment,
// reconstruct to the public key's secret, and threshold-sign.
func TestGenerateKeyAndSign(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 7, T: 2}, hybriddkg.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if key.PublicKey() == nil || len(key.Shares()) != 7 {
		t.Fatalf("key: pk=%v shares=%d", key.PublicKey(), len(key.Shares()))
	}
	for id, share := range key.Shares() {
		if !key.Commitment().VerifyShare(int64(id), share) {
			t.Fatalf("share %d invalid", id)
		}
	}
	message := []byte("hello, threshold world")
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
	secret, err := key.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !net.Group().GExp(secret).Equal(key.PublicKey()) {
		t.Fatal("reconstructed secret does not match public key")
	}
}

// TestEncryptDecrypt: a message encrypted under a DKG key decrypts
// through the threshold of shareholders.
func TestEncryptDecrypt(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1}, hybriddkg.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Group().GExp(big.NewInt(123456))
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
}

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
	if len(key.Shares()) != 7 {
		t.Fatalf("%d shares, want 7", len(key.Shares()))
	}
	for id, share := range key.Shares() {
		if !key.Commitment().VerifyShare(int64(id), share) {
			t.Fatalf("share %d invalid", id)
		}
	}
	secret, err := key.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !net.Group().GExp(secret).Equal(key.PublicKey()) {
		t.Fatal("reconstructed secret does not match public key")
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
	net, err := hybriddkg.New(hybriddkg.Roster{N: 4, T: 1}, hybriddkg.WithSeed(23))
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

func TestRenewSharesPreservesKey(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 7, T: 2}, hybriddkg.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pkBefore := key.PublicKey()
	secretBefore, err := key.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	oldShare1 := new(big.Int).Set(key.Shares()[1])

	if err := key.Renew(ctx); err != nil {
		t.Fatal(err)
	}
	if !key.PublicKey().Equal(pkBefore) {
		t.Fatal("public key changed by renewal")
	}
	if key.Shares()[1].Cmp(oldShare1) == 0 {
		t.Fatal("share unchanged by renewal")
	}
	for id, share := range key.Shares() {
		if !key.Commitment().VerifyShare(int64(id), share) {
			t.Fatalf("renewed share %d invalid", id)
		}
	}
	secretAfter, err := key.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if secretAfter.Cmp(secretBefore) != 0 {
		t.Fatal("secret changed by renewal")
	}
	// Signing and decryption still work under the renewed shares.
	sig, err := key.Sign(ctx, []byte("post-renewal"))
	if err != nil {
		t.Fatal(err)
	}
	if !key.Verify([]byte("post-renewal"), sig) {
		t.Fatal("post-renewal signature rejected")
	}
	m := net.Group().GExp(big.NewInt(123456))
	ct, err := key.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(ctx, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("post-renewal decrypt mismatch")
	}
}

func TestCrashRecoverThroughFacade(t *testing.T) {
	net, err := hybriddkg.New(hybriddkg.Roster{N: 9, T: 2, F: 1}, hybriddkg.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()
	net.Crash(9)
	key, err := net.GenerateKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := key.Shares()[9]; ok {
		t.Fatal("crashed node holds a share")
	}
	net.Recover(9)
	if net.N() != 9 || net.T() != 2 {
		t.Fatal("accessors broken")
	}
	if net.Stats().TotalMsgs == 0 {
		t.Fatal("no traffic accounted")
	}
	sig, err := key.Sign(ctx, []byte("after recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if !key.Verify([]byte("after recovery"), sig) {
		t.Fatal("signature rejected")
	}
}
