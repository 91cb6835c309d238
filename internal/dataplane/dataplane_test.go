package dataplane_test

import (
	"errors"
	"math/big"
	"testing"

	"hybriddkg/internal/dataplane"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

func newCluster(t *testing.T, n, th int, tweak func(*dataplane.Config)) *harness.DataPlaneCluster {
	t.Helper()
	c, err := harness.NewDataPlaneCluster(harness.DataPlaneOptions{N: n, T: th, Seed: 42, Tweak: tweak})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDataPlaneSign(t *testing.T) {
	c := newCluster(t, 7, 2, nil)
	message := []byte("distributed key, ordinary signature")
	sig, err := c.Sign(1, message)
	if err != nil {
		t.Fatal(err)
	}
	if !thresh.Verify(c.Group, c.KeyV.PublicKey(), message, sig) {
		t.Fatal("signature does not verify")
	}

	// Another aggregator signs the same message with its own nonce:
	// different signature, same key.
	sig2, err := c.Sign(4, message)
	if err != nil {
		t.Fatal(err)
	}
	if !thresh.Verify(c.Group, c.KeyV.PublicKey(), message, sig2) {
		t.Fatal("second aggregator's signature does not verify")
	}
	if sig.R.Equal(sig2.R) {
		t.Fatal("two aggregators shared a nonce")
	}
}

func TestDataPlaneSignDuplicateCoalesces(t *testing.T) {
	c := newCluster(t, 5, 1, nil)
	svc := c.Services[1]
	message := []byte("asked twice, signed once")

	var sigs [2]thresh.Signature
	var errs [2]error
	done := 0
	for i := 0; i < 2; i++ {
		i := i
		if err := svc.Sign(c.KeyID, message, func(r dataplane.Result, err error) {
			sigs[i], errs[i] = r.Sig, err
			done++
		}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush(c.KeyID)
	c.Pump(func() bool { return done == 2 })
	if done != 2 {
		t.Fatalf("%d of 2 callbacks fired", done)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if !sigs[0].R.Equal(sigs[1].R) || sigs[0].Sigma.Cmp(sigs[1].Sigma) != 0 {
		t.Fatal("coalesced requests produced different signatures")
	}
	st := svc.Stats()
	if st.Coalesced != 1 || st.Requests != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Re-requesting after completion is a result-cache hit.
	sig3, err := c.Sign(1, message)
	if err != nil {
		t.Fatal(err)
	}
	if !sig3.R.Equal(sigs[0].R) {
		t.Fatal("cached signature differs")
	}
	if c.Services[1].Stats().CacheHits == 0 {
		t.Fatal("no cache hit recorded")
	}
}

func TestDataPlaneSignBatch(t *testing.T) {
	c := newCluster(t, 7, 2, func(cfg *dataplane.Config) {
		cfg.NonceTarget = 16 // pre-stock the reservoir for one big batch
		cfg.MaxBatch = 64    // no watermark flush mid-test
	})
	c.Services[1].Activate(c.KeyID)

	msgs := make([][]byte, 10)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'b', 'a', 't', 'c', 'h'}
	}
	sigs, err := c.SignBatch(1, msgs)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, sig := range sigs {
		if !thresh.Verify(c.Group, c.KeyV.PublicKey(), msgs[i], sig) {
			t.Fatalf("signature %d does not verify", i)
		}
		rb := c.Group.EncodeCompressed(sig.R)
		if seen[string(rb)] {
			t.Fatalf("signature %d reused a nonce", i)
		}
		seen[string(rb)] = true
	}
	st := c.Services[1].Stats()
	if st.Batches != 1 {
		t.Fatalf("10 requests took %d batches, want 1 coalesced fan-out (stats %+v)", st.Batches, st)
	}
	if st.Items != 10 {
		t.Fatalf("batch carried %d items, want 10", st.Items)
	}
}

func TestDataPlaneDecrypt(t *testing.T) {
	c := newCluster(t, 5, 1, nil)
	plainIn := c.Group.GExp(big.NewInt(7777))
	ct, err := thresh.Encrypt(c.Group, c.KeyV.PublicKey(), plainIn, randutil.NewReader(9))
	if err != nil {
		t.Fatal(err)
	}
	plainOut, err := c.Decrypt(3, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !plainOut.Equal(plainIn) {
		t.Fatal("threshold decryption mismatch")
	}
}

func TestDataPlaneBeacon(t *testing.T) {
	c := newCluster(t, 5, 1, nil)
	var prev [32]byte
	for round := uint64(1); round <= 3; round++ {
		out, err := c.Beacon(1, round)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if out.Round != round {
			t.Fatalf("round %d answered as %d", round, out.Round)
		}
		if out.Output == prev {
			t.Fatalf("round %d output repeated", round)
		}
		prev = out.Output
		// The output is publicly verifiable from the opening.
		if out.Output != thresh.BeaconOutput(c.Group, round, out.Opened) {
			t.Fatalf("round %d output does not match opening", round)
		}
		if !c.Group.GExp(out.Opened).Equal(out.EphemeralPK) {
			t.Fatalf("round %d opening does not match round key", round)
		}
	}

	// The beacon is a shared sequence: a different aggregator opening
	// the same round gets the identical output.
	out2, err := c.Beacon(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := c.Beacon(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Output != out2.Output {
		t.Fatal("aggregators disagree on a beacon round")
	}
}

// TestDataPlaneEvictsBadSigner wires nodes 2, 3 and 4 — aggregator
// 1's entire initial fan-out — to corrupt every partial signature
// they return. The aggregator must identify the forgers from the
// failed combine, evict them and finish against the honest remainder.
func TestDataPlaneEvictsBadSigner(t *testing.T) {
	c := newCluster(t, 7, 2, func(cfg *dataplane.Config) {
		if cfg.Self != 2 && cfg.Self != 3 && cfg.Self != 4 {
			return
		}
		orig := cfg.Send
		cfg.Send = func(to msg.NodeID, body msg.Body) {
			if resp, ok := body.(*dataplane.PartialResp); ok {
				forged := &dataplane.PartialResp{Key: resp.Key, Items: make([]dataplane.RespItem, len(resp.Items))}
				copy(forged.Items, resp.Items)
				for i := range forged.Items {
					if forged.Items[i].Sigma != nil {
						forged.Items[i].Sigma = new(big.Int).Add(forged.Items[i].Sigma, big.NewInt(1))
					}
				}
				body = forged
			}
			orig(to, body)
		}
	})

	message := []byte("three of the seven are lying")
	sig, err := c.Sign(1, message)
	if err != nil {
		t.Fatal(err)
	}
	if !thresh.Verify(c.Group, c.KeyV.PublicKey(), message, sig) {
		t.Fatal("signature does not verify despite honest majority")
	}
	st := c.Services[1].Stats()
	if st.Evicted == 0 {
		t.Fatalf("forged partial was never evicted: %+v", st)
	}

	// Later requests keep working (the suspect is routed around).
	sig2, err := c.Sign(1, []byte("business as usual"))
	if err != nil {
		t.Fatal(err)
	}
	if !thresh.Verify(c.Group, c.KeyV.PublicKey(), []byte("business as usual"), sig2) {
		t.Fatal("post-eviction signature does not verify")
	}
}

// TestDecryptByzantineResponders puts t = 3 Byzantine nodes in
// aggregator 1's first fan-out at n = 10: node 2 returns a bad Z, node
// 3 a bad D and node 4 withholds its answers. Every decryption must
// complete with the right plaintext, and exactly nodes 2 and 3 are
// evicted: after the first request, node 1 asks neither again, while
// the silent node 4, which proved nothing wrong, is still asked.
func TestDecryptByzantineResponders(t *testing.T) {
	for _, gr := range []*group.Group{group.P256(), group.Test256()} {
		t.Run(gr.Name(), func(t *testing.T) {
			var asked map[msg.NodeID]bool
			c, err := harness.NewDataPlaneCluster(harness.DataPlaneOptions{N: 10, T: 3, Seed: 42, Group: gr,
				Tweak: func(cfg *dataplane.Config) {
					self, orig := cfg.Self, cfg.Send
					cfg.Send = func(to msg.NodeID, body msg.Body) {
						switch m := body.(type) {
						case *dataplane.PartialReq:
							if self == 1 && asked != nil {
								asked[to] = true
							}
						case *dataplane.PartialResp:
							if self == 4 {
								return
							}
							if self == 2 || self == 3 {
								bad := &dataplane.PartialResp{Key: m.Key, Items: append([]dataplane.RespItem(nil), m.Items...)}
								for i := range bad.Items {
									if self == 2 {
										bad.Items[i].Z = new(big.Int).Add(bad.Items[i].Z, big.NewInt(1))
									} else {
										bad.Items[i].D = gr.Mul(bad.Items[i].D, gr.Generator())
									}
								}
								body = bad
							}
						}
						orig(to, body)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			rng := randutil.NewReader(5)
			for i := 0; i < 6; i++ {
				if i == 1 {
					asked = map[msg.NodeID]bool{}
				}
				plain := gr.GExp(big.NewInt(int64(1000 + i)))
				ct, err := thresh.Encrypt(gr, c.KeyV.PublicKey(), plain, rng)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Decrypt(1, ct)
				if err != nil {
					t.Fatalf("decrypt %d: %v", i, err)
				}
				if !got.Equal(plain) {
					t.Fatalf("decrypt %d: wrong plaintext", i)
				}
			}
			if st := c.Services[1].Stats(); st.Evicted != 2 {
				t.Fatalf("evicted %d, want 2: %+v", st.Evicted, st)
			}
			if asked[2] || asked[3] || !asked[4] {
				t.Fatalf("asked after eviction: %v, want 4 but neither 2 nor 3", asked)
			}
		})
	}
}

func TestDataPlaneAdmissionShed(t *testing.T) {
	c := newCluster(t, 5, 1, func(cfg *dataplane.Config) {
		cfg.MaxPending = 1
		cfg.MaxBatch = 64
		cfg.Provision = func(msg.SessionID, []msg.SessionID) {} // starve: requests stay queued
	})
	svc := c.Services[1]
	if err := svc.Sign(c.KeyID, []byte("first"), func(dataplane.Result, error) {}); err != nil {
		t.Fatal(err)
	}
	err := svc.Sign(c.KeyID, []byte("second"), func(dataplane.Result, error) {})
	if !errors.Is(err, dataplane.ErrOverloaded) {
		t.Fatalf("overflow not shed: %v", err)
	}
	if svc.Stats().Shed != 1 {
		t.Fatalf("stats: %+v", svc.Stats())
	}
}
