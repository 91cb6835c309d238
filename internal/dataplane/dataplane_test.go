package dataplane_test

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"testing"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/dataplane"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
	"hybriddkg/internal/verify"
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

// TestDataPlaneBeacon: a round's output is the hash of H_r^s, so it is
// the same whichever aggregator opens it, across a renewal, and on a
// cluster built afresh from the same sharing; any round ≥ 1 is served.
func TestDataPlaneBeacon(t *testing.T) {
	c := newCluster(t, 5, 1, nil)
	var prev [32]byte
	outs := map[uint64][32]byte{}
	for _, round := range []uint64{1, 2, 3, 1 << 40} {
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
		if out.Output != thresh.BeaconOutput(c.Group, round, out.Value) {
			t.Fatalf("round %d output does not match its value", round)
		}
		outs[round] = out.Output
	}
	same := func(c *harness.DataPlaneCluster, agg msg.NodeID, round uint64, what string) {
		t.Helper()
		out, err := c.Beacon(agg, round)
		if err != nil {
			t.Fatalf("%s: round %d via node %d: %v", what, round, agg, err)
		}
		if out.Output != outs[round] {
			t.Fatalf("%s: node %d disagrees on round %d", what, agg, round)
		}
	}
	for agg := msg.NodeID(2); agg <= 5; agg++ {
		same(c, agg, 2, "another aggregator")
	}
	if err := c.Renew(); err != nil {
		t.Fatal(err)
	}
	same(c, 3, 3, "after renewal")
	same(c, 4, 1<<40, "after renewal")
	same(newCluster(t, 5, 1, nil), 5, 1, "fresh services, same sharing")
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
// 3 a bad D and node 4 withholds its answers. Every decryption, and
// every beacon round, must complete with the right result, and exactly
// nodes 2 and 3 are evicted: after the first request, node 1 asks
// neither again, while the silent node 4, which proved nothing wrong,
// is still asked.
func TestDecryptByzantineResponders(t *testing.T) {
	for _, gr := range []*group.Group{group.P256(), group.Test256()} {
		t.Run(gr.Name(), func(t *testing.T) {
			honest, err := harness.NewDataPlaneCluster(harness.DataPlaneOptions{N: 10, T: 3, Seed: 42, Group: gr})
			if err != nil {
				t.Fatal(err)
			}
			rows := []struct {
				op  string
				run func(c *harness.DataPlaneCluster, i int, rng *randutil.Reader) error
			}{
				{"decrypt", func(c *harness.DataPlaneCluster, i int, rng *randutil.Reader) error {
					plain := gr.GExp(big.NewInt(int64(1000 + i)))
					ct, err := thresh.Encrypt(gr, c.KeyV.PublicKey(), plain, rng)
					if err != nil {
						return err
					}
					got, err := c.Decrypt(1, ct)
					if err == nil && !got.Equal(plain) {
						err = errors.New("wrong plaintext")
					}
					return err
				}},
				// The honest cluster deals the same key (same seed): its
				// aggregator's output is the round's.
				{"beacon", func(c *harness.DataPlaneCluster, i int, _ *randutil.Reader) error {
					round := uint64(1 + i)
					got, err := c.Beacon(1, round)
					if err != nil {
						return err
					}
					want, err := honest.Beacon(2, round)
					if err == nil && got.Output != want.Output {
						err = errors.New("wrong beacon output")
					}
					return err
				}},
			}
			for _, row := range rows {
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
					if err := row.run(c, i, rng); err != nil {
						t.Fatalf("%s %d: %v", row.op, i, err)
					}
				}
				if st := c.Services[1].Stats(); st.Evicted != 2 {
					t.Fatalf("%s: evicted %d, want 2: %+v", row.op, st.Evicted, st)
				}
				if asked[2] || asked[3] || !asked[4] {
					t.Fatalf("%s: asked after eviction: %v, want 4 but neither 2 nor 3", row.op, asked)
				}
			}
		})
	}
}

// TestPlantedPartialEvictsNoOne: a roster member asks every peer for a
// decryption under another request's digest — a beacon round's, which
// anyone can predict, and another ciphertext's. A peer answers an item
// only under the digest it derives from the payload, so it refuses
// both and caches nothing; the round and the decryption then complete
// with no honest peer evicted.
func TestPlantedPartialEvictsNoOne(t *testing.T) {
	const byz, round = msg.NodeID(4), 3
	var refused, answered int
	c := newCluster(t, 4, 1, func(cfg *dataplane.Config) {
		orig := cfg.Send
		cfg.Send = func(to msg.NodeID, body msg.Body) {
			if resp, ok := body.(*dataplane.PartialResp); ok && to == byz {
				for _, it := range resp.Items {
					if it.Status == dataplane.StBadOp {
						refused++
					} else {
						answered++
					}
				}
			}
			orig(to, body)
		}
	})
	rng := randutil.NewReader(11)
	plainA, plainB := c.Group.GExp(big.NewInt(11)), c.Group.GExp(big.NewInt(12))
	ctA, err := thresh.Encrypt(c.Group, c.KeyV.PublicKey(), plainA, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := thresh.Encrypt(c.Group, c.KeyV.PublicKey(), plainB, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := msg.NewWriter(0)
	w.Blob(c.Group.EncodeCompressed(ctA.C1))
	w.Blob(c.Group.EncodeCompressed(ctA.C2))
	wrongB := dataplane.DecryptDigest(c.KeyID, c.Group.EncodeCompressed(ctB.C1), c.Group.EncodeCompressed(ctB.C2))
	env := c.Net.SessionEnv(byz, dataplane.PeerSession)
	for to := msg.NodeID(1); to < byz; to++ {
		env.Send(to, &dataplane.PartialReq{Key: c.KeyID, Items: []dataplane.ReqItem{
			{Digest: dataplane.BeaconDigest(c.KeyID, round), Op: dataplane.OpDecrypt, Payload: w.Bytes()},
			{Digest: wrongB, Op: dataplane.OpDecrypt, Payload: w.Bytes()},
		}})
	}
	c.Net.Run(0)
	if refused != 6 || answered != 0 {
		t.Fatalf("planted items: %d refused, %d answered; want 6 and 0", refused, answered)
	}
	for agg := msg.NodeID(1); agg < byz; agg++ {
		out, err := c.Beacon(agg, round)
		if err != nil || out.Output != thresh.BeaconOutput(c.Group, round, out.Value) {
			t.Fatalf("round %d via node %d: %+v, %v", round, agg, out, err)
		}
		got, err := c.Decrypt(agg, ctB)
		if err != nil || !got.Equal(plainB) {
			t.Fatalf("decrypt via node %d: %v", agg, err)
		}
		if st := c.Services[agg].Stats(); st.Evicted != 0 {
			t.Fatalf("node %d evicted %d honest peers", agg, st.Evicted)
		}
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

// TestDecryptSilentPeersOneKick: an aggregator asks exactly t peers, and
// the retry tick re-fans a stalled item to every peer. With one silent
// peer, then t silent peers, among those node 1 asks (n = 7, t = 2, no
// timers), every decryption and beacon round completes after at most
// one Kick, that is within two of the n−t fan-outs, and nobody is
// evicted for keeping quiet.
func TestDecryptSilentPeersOneKick(t *testing.T) {
	const n, th = 7, 2
	honest := newCluster(t, n, th, nil)
	for _, silent := range [][]msg.NodeID{{2}, {2, 3}} {
		c := newCluster(t, n, th, func(cfg *dataplane.Config) {
			if !slices.Contains(silent, cfg.Self) {
				return
			}
			orig := cfg.Send
			cfg.Send = func(to msg.NodeID, body msg.Body) {
				if _, ok := body.(*dataplane.PartialResp); !ok {
					orig(to, body)
				}
			}
		})
		svc, rng, kicks := c.Services[1], randutil.NewReader(7), 0
		for i := 0; i < 6; i++ {
			plain := c.Group.GExp(big.NewInt(int64(100 + i)))
			ct, err := thresh.Encrypt(c.Group, c.KeyV.PublicKey(), plain, rng)
			if err != nil {
				t.Fatal(err)
			}
			round := uint64(1 + i)
			want, err := honest.Beacon(2, round) // same seed, same key
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []string{"decrypt", "beacon"} {
				var res dataplane.Result
				var rerr error
				done := false
				cb := func(r dataplane.Result, err error) { res, rerr, done = r, err, true }
				if op == "decrypt" {
					err = svc.Decrypt(c.KeyID, ct, cb)
				} else {
					err = svc.Beacon(c.KeyID, round, cb)
				}
				if err != nil {
					t.Fatal(err)
				}
				svc.Flush(c.KeyID)
				c.Net.Run(0)
				if !done {
					kicks++
					svc.Kick(c.KeyID)
					c.Net.Run(0)
				}
				switch {
				case !done:
					t.Fatalf("silent %v: %s %d stalled after one kick", silent, op, i)
				case rerr != nil:
					t.Fatalf("silent %v: %s %d: %v", silent, op, i, rerr)
				case op == "decrypt" && !res.Plain.Equal(plain):
					t.Fatalf("silent %v: decrypt %d: wrong plaintext", silent, i)
				case op == "beacon" && res.Beacon.Output != want.Output:
					t.Fatalf("silent %v: beacon round %d: wrong output", silent, round)
				}
			}
		}
		if kicks == 0 {
			t.Fatalf("silent %v: no request asked a silent peer", silent)
		}
		if st := svc.Stats(); st.Evicted != 0 {
			t.Fatalf("silent %v: silent peers evicted: %+v", silent, st)
		}
	}
}

// heldPool is a real verify.Pool whose tasks wait for a gate to open.
type heldPool struct {
	pool *verify.Pool
	gate chan struct{}
}

func (h heldPool) Submit(fn func()) bool {
	return h.pool.Submit(func() { <-h.gate; fn() })
}

// TestDecryptParallelCombine runs aggregator 1's combines on a real
// 4-worker verify.Pool with 64 decryptions and beacon rounds in flight
// at once and node 3 answering every item with a bad proof. A renewal
// lands while all 64 combines wait on the pool, so each is redone in
// the new epoch: at every node at once, or, staggered, at the peers
// before they answer and at node 1 only then — its waiting combines
// hold new-epoch partials that fail against the old V(j), and must blame
// no one. The peers are real services answering on goroutines of their
// own; a renewal waits out the answers being delivered. Every result
// must be right, and only node 3 may be evicted. CI runs it under -race.
func TestDecryptParallelCombine(t *testing.T) {
	for _, staggered := range []bool{false, true} {
		t.Run(fmt.Sprintf("staggered=%v", staggered), func(t *testing.T) {
			parallelCombine(t, staggered)
		})
	}
}

func parallelCombine(t *testing.T, staggered bool) {
	const n, th, byz, reqs = 5, 2, msg.NodeID(3), 64
	gr := group.Test256()
	rng := randutil.NewReader(64)
	keyP, err := poly.NewRandom(gr.Q(), th, rng)
	if err != nil {
		t.Fatal(err)
	}
	newP, err := poly.NewRandomWithConstant(gr.Q(), keyP.Secret(), th, rng)
	if err != nil {
		t.Fatal(err)
	}
	keyV, newV := commit.NewVector(gr, keyP), commit.NewVector(gr, newP)
	pool := verify.NewPool(4)
	defer pool.Close()
	held := heldPool{pool, make(chan struct{})}
	var opened sync.Once
	release := func() { opened.Do(func() { close(held.gate) }) }
	defer release()        // before pool.Close, which waits for held tasks
	var epoch sync.RWMutex // read: a peer answering; write: the renewal
	peers := make([]msg.NodeID, 0, n)
	for i := 1; i <= n; i++ {
		peers = append(peers, msg.NodeID(i))
	}
	svcs := make(map[msg.NodeID]*dataplane.Service, n)
	for _, id := range peers {
		cfg := dataplane.Config{Group: gr, Self: id, N: n, T: th, Peers: peers, Rand: randutil.NewReader(uint64(id))}
		if id == 1 {
			cfg.Parallel = held
			cfg.RetryDelay = 5 * time.Millisecond
			cfg.Defer = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
			cfg.Send = func(to msg.NodeID, body msg.Body) {
				go func() {
					epoch.RLock()
					defer epoch.RUnlock()
					svcs[to].HandleMessage(1, body)
				}()
			}
		} else {
			cfg.Send = func(to msg.NodeID, body msg.Body) {
				if resp, ok := body.(*dataplane.PartialResp); ok && id == byz {
					bad := &dataplane.PartialResp{Key: resp.Key, Items: append([]dataplane.RespItem(nil), resp.Items...)}
					for i := range bad.Items {
						bad.Items[i].Z = new(big.Int).Add(bad.Items[i].Z, big.NewInt(1))
					}
					body = bad
				}
				svcs[to].HandleMessage(id, body)
			}
		}
		svcs[id] = dataplane.NewService(cfg)
	}
	install := func(p *poly.Poly, v *commit.Vector, ids []msg.NodeID) error {
		for _, id := range ids {
			if _, err := svcs[id].InstallKey(1, p.EvalInt(int64(id)), v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := install(keyP, keyV, peers); err != nil {
		t.Fatal(err)
	}
	renewNow := peers
	if staggered {
		if err := install(newP, newV, peers[1:]); err != nil {
			t.Fatal(err)
		}
		renewNow = peers[:1]
	}
	defer func() {
		for _, svc := range svcs {
			svc.Close()
		}
	}()

	type outcome struct {
		i   int
		res dataplane.Result
		err error
	}
	results := make(chan outcome, reqs)
	plains := make([]group.Element, reqs)
	cts := make([]thresh.Ciphertext, reqs)
	for i := 0; i < reqs; i += 2 {
		plains[i] = gr.GExp(big.NewInt(int64(500 + i)))
		if cts[i], err = thresh.Encrypt(gr, keyV.PublicKey(), plains[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reqs; i++ {
		go func(i int) {
			cb := func(r dataplane.Result, err error) { results <- outcome{i, r, err} }
			var err error
			if i%2 == 0 {
				err = svcs[1].Decrypt(1, cts[i], cb)
			} else {
				err = svcs[1].Beacon(1, uint64(i), cb)
			}
			if err != nil {
				results <- outcome{i, dataplane.Result{}, err}
			}
			svcs[1].Flush(1)
		}(i)
	}

	// Every request reaches t answers, so each has a combine waiting.
	deadline := time.Now().Add(60 * time.Second)
	for pool.Stats().Submitted < reqs {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d combines submitted", pool.Stats().Submitted, reqs)
		}
		time.Sleep(time.Millisecond)
	}
	epoch.Lock()
	err = install(newP, newV, renewNow)
	epoch.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	release()

	for got := 0; got < reqs; got++ {
		var o outcome
		select {
		case o = <-results:
		case <-time.After(60 * time.Second):
			t.Fatalf("%d of %d requests stalled", reqs-got, reqs)
		}
		switch {
		case o.err != nil:
			t.Fatalf("request %d: %v", o.i, o.err)
		case o.i%2 == 0 && !o.res.Plain.Equal(plains[o.i]):
			t.Fatalf("decrypt %d: wrong plaintext", o.i)
		case o.i%2 == 1:
			round := uint64(o.i)
			value := gr.Exp(thresh.BeaconBase(gr, keyV.PublicKey(), round), keyP.Secret())
			if !o.res.Beacon.Value.Equal(value) || o.res.Beacon.Output != thresh.BeaconOutput(gr, round, value) {
				t.Fatalf("beacon round %d: wrong output", round)
			}
		}
	}
	st := svcs[1].Stats()
	if sus := svcs[1].KeysSnapshot()[0].Suspects; st.Evicted > 1 || (len(sus) > 0 && !slices.Equal(sus, []msg.NodeID{byz})) {
		t.Fatalf("suspects %v, evicted %d; only node %d may be", sus, st.Evicted, byz)
	}
	if sub := pool.Stats().Submitted; sub <= reqs {
		t.Fatalf("%d combines submitted: none was redone after the renewal", sub)
	}
}
