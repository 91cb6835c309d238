package dataplane_test

import (
	"errors"
	"fmt"
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
		cfg.MaxBatch = 64 // no watermark flush mid-test
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

// TestDataPlaneEvictsBadSigner wires nodes 2, 3 and 4 — the peers
// aggregator 1's rotation asks first — to corrupt every answer they
// return. The aggregator must identify the forgers from the failed
// signature, evict them and finish against the honest remainder.
func TestDataPlaneEvictsBadSigner(t *testing.T) {
	c := newCluster(t, 7, 2, func(cfg *dataplane.Config) {
		if cfg.Self != 2 && cfg.Self != 3 && cfg.Self != 4 {
			return
		}
		orig := cfg.Send
		cfg.Send = func(to msg.NodeID, body msg.Body) {
			if resp, ok := body.(*dataplane.PartialResp); ok {
				forged := &dataplane.PartialResp{Key: resp.Key, Commits: resp.Commits, Items: make([]dataplane.RespItem, len(resp.Items))}
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

	c.Services[1].Activate(c.KeyID)
	c.Net.Run(0) // every peer's commitments are booked
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
		cfg.MaxBatch = 64 // nothing flushes: requests stay queued
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

// TestSignByzantineSigners puts four misbehaving signers at n = 10,
// t = 3 among the peers aggregator 1 asks first: node 2 returns a bad z,
// node 3 withholds its answers, node 4 answers under a nonce ID it has
// already used and node 5 under one it never issued. Every request
// completes within n−t attempts, and nodes 2, 4 and 5 are named suspects;
// the silent node 3, which proved nothing wrong, is not.
func TestSignByzantineSigners(t *testing.T) {
	const n, th = 10, 3
	for _, gr := range []*group.Group{group.P256(), group.Test256()} {
		t.Run(gr.Name(), func(t *testing.T) {
			attempts := map[[32]byte]map[string]bool{} // digest → distinct lists B
			var firstID uint64                         // the first nonce ID node 4 issued
			c, err := harness.NewDataPlaneCluster(harness.DataPlaneOptions{N: n, T: th, Seed: 42, Group: gr,
				Tweak: func(cfg *dataplane.Config) {
					self, orig := cfg.Self, cfg.Send
					cfg.Send = func(to msg.NodeID, body msg.Body) {
						switch m := body.(type) {
						case *dataplane.PartialReq:
							for _, it := range m.Items {
								if self == 1 && it.Op == dataplane.OpSign {
									if attempts[it.Digest] == nil {
										attempts[it.Digest] = map[string]bool{}
									}
									attempts[it.Digest][string(it.B)] = true
								}
							}
						case *dataplane.PartialResp:
							if self == 4 && firstID == 0 && len(m.Commits) > 0 {
								raws, err := thresh.ParseCommitments(m.Commits)
								if err == nil && len(raws) > 0 {
									firstID = raws[0].ID
								}
							}
							if len(m.Items) == 0 || self < 2 || self > 5 {
								break // fetch answers and honest nodes pass
							}
							if self == 3 {
								return
							}
							bad := &dataplane.PartialResp{Key: m.Key, Commits: m.Commits, Items: append([]dataplane.RespItem(nil), m.Items...)}
							for i := range bad.Items {
								switch it := &bad.Items[i]; self {
								case 2:
									it.Sigma = new(big.Int).Add(it.Sigma, big.NewInt(1))
								case 4:
									it.Nonce = firstID
								case 5:
									it.Nonce ^= 1 << 31
								}
							}
							body = bad
						}
						orig(to, body)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			c.Services[1].Activate(c.KeyID)
			c.Net.Run(0)
			rs := map[string]bool{}
			for i := 0; i < 12; i++ {
				message := []byte{'b', 'y', 'z', byte(i)}
				sig, err := c.Sign(1, message)
				if err != nil {
					t.Fatalf("sign %d: %v", i, err)
				}
				if !thresh.Verify(gr, c.KeyV.PublicKey(), message, sig) {
					t.Fatalf("sign %d does not verify", i)
				}
				rs[sig.R.String()] = true
			}
			if len(rs) != 12 {
				t.Fatalf("%d distinct nonces under 12 signatures", len(rs))
			}
			retried := 0
			for d, bs := range attempts {
				if len(bs) > n-th {
					t.Fatalf("request %x took %d attempts, more than n−t = %d", d[:4], len(bs), n-th)
				}
				retried += len(bs) - 1
			}
			st := c.Services[1].Stats()
			if uint64(retried) != st.SignAttempts || retried == 0 {
				t.Fatalf("%d retries on the wire, %d counted", retried, st.SignAttempts)
			}
			ks := c.Services[1].KeysSnapshot()
			if got := fmt.Sprint(ks[0].Suspects); got != "[2 4 5]" || st.Evicted != 3 {
				t.Fatalf("suspects %s, evicted %d; want [2 4 5] and 3", got, st.Evicted)
			}
		})
	}
}

// TestSignRenewalMidFlight is the signing twin of
// TestDecryptRenewalMidFlight: renewed shares land on every node while
// signatures are in flight — some peers have answered under the old
// shares, the answers of others are on the wire. Every signature
// verifies, and no honest signer is evicted.
func TestSignRenewalMidFlight(t *testing.T) {
	for _, gr := range []*group.Group{group.P256(), group.Test256()} {
		t.Run(gr.Name(), func(t *testing.T) {
			c, err := harness.NewDataPlaneCluster(harness.DataPlaneOptions{N: 7, T: 2, Seed: 43, Group: gr,
				Tweak: func(cfg *dataplane.Config) { cfg.MaxBatch = 64 }})
			if err != nil {
				t.Fatal(err)
			}
			c.Services[1].Activate(c.KeyID)
			c.Net.Run(0)
			msgs := make([][]byte, 16)
			sigs := make([]thresh.Signature, len(msgs))
			left := len(msgs)
			for i := range msgs {
				i := i
				msgs[i] = []byte{'r', 'e', 'n', byte(i)}
				if err := c.Services[1].Sign(c.KeyID, msgs[i], func(r dataplane.Result, err error) {
					if err != nil {
						t.Errorf("sign %d: %v", i, err)
					}
					sigs[i] = r.Sig
					left--
				}); err != nil {
					t.Fatal(err)
				}
			}
			c.Services[1].Flush(c.KeyID)
			c.Net.Run(8) // a few peers answer under the old shares
			oldV := c.KeyV
			if err := c.Renew(); err != nil {
				t.Fatal(err)
			}
			if c.KeyV.Eval(2).Equal(oldV.Eval(2)) {
				t.Fatal("renewal left the shares unchanged")
			}
			if !c.Pump(func() bool { return left == 0 }) {
				t.Fatalf("%d signatures stalled", left)
			}
			for i, sig := range sigs {
				if !thresh.Verify(gr, c.KeyV.PublicKey(), msgs[i], sig) {
					t.Fatalf("signature %d does not verify", i)
				}
			}
			for id, svc := range c.Services {
				if st := svc.Stats(); st.Evicted != 0 {
					t.Fatalf("node %d evicted an honest signer: %+v", id, st)
				}
			}
			if st := c.Services[1].Stats(); st.SignAttempts == 0 {
				t.Fatalf("no attempt restarted across the renewal: %+v", st)
			}
		})
	}
}
