package main

import (
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/store"
	"hybriddkg/internal/thresh"
	"hybriddkg/internal/transport"
	"hybriddkg/internal/vss"
)

// The layers pass calls each layer's exported functions from one
// goroutine at the workloads' sizes (p256, n, t) and reports the
// median of each. A time includes the layers beneath it: a commit
// call contains its group work. Self time needs spans inside the
// program and is left to a later change.

// layerPass holds the pass's settings and what it has measured.
type layerPass struct {
	iters   int           // iterations per probe
	budget  time.Duration // a probe past its budget stops early, after minIters
	tr      *tracer
	values  map[string]float64
	samples map[string]int
	err     error
}

const minIters = 10

// probe times fn and records the median under name, in the unit the
// name's suffix gives (_us or _ms). One untimed call goes first, so
// lazily built tables are not billed to the first sample.
func (p *layerPass) probe(name string, fn func() error) { p.probeChecked(name, fn, nil) }

// probeChecked is probe with an untimed check after every call, for
// results whose verification is not part of the layer's cost.
func (p *layerPass) probeChecked(name string, fn, check func() error) {
	if p.err != nil {
		return
	}
	unit := time.Microsecond
	if strings.HasSuffix(name, "_ms") {
		unit = time.Millisecond
	}
	xs := make([]float64, 0, p.iters)
	begin := time.Now()
	for i := -1; i < p.iters; i++ { // -1 is the untimed call
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		if i < 0 {
			continue
		}
		p.tr.endAt(p.tr.beginAt("layers."+name, 0, uint64(i), t0), t1)
		xs = append(xs, float64(t1.Sub(t0))/float64(unit))
		if i+1 >= minIters && t1.Sub(begin) > p.budget {
			break
		}
	}
	p.values[name] = median(xs)
	p.samples[name] = len(xs)
}

var errWrong = errors.New("wrong result")

func must(ok bool) error {
	if !ok {
		return errWrong
	}
	return nil
}

// pingPong bounces every message it receives back to its sender,
// except on the node that started the exchange, which reports it.
type pingPong struct {
	node  *transport.Node
	heard chan struct{} // nil on the echoing side
}

func (h *pingPong) HandleMessage(from msg.NodeID, body msg.Body) {
	if h.heard != nil {
		h.heard <- struct{}{}
		return
	}
	h.node.Send(from, body)
}
func (h *pingPong) HandleTimer(uint64) {}
func (h *pingPong) HandleRecover()     {}

// runLayers runs the pass. Spans go to <outDir>/layers.spans.jsonl
// when tr is set.
func runLayers(seed uint64, n, t, iters int, budget time.Duration, outDir string, tr *tracer) (map[string]float64, map[string]int, error) {
	gr, err := group.ByName(groupName)
	if err != nil {
		return nil, nil, err
	}
	p := &layerPass{iters: iters, budget: budget, tr: tr, values: map[string]float64{}, samples: map[string]int{}}
	rng := randutil.NewReader(seed)
	scalar := func() *big.Int {
		k, err := gr.RandNonZeroScalar(rng)
		if err != nil && p.err == nil {
			p.err = err
		}
		return k
	}

	// group: the exponentiations every layer above is made of.
	terms := n * (t + 1)
	bases := make([]group.Element, terms)
	exps := make([]*big.Int, terms)
	for i := range bases {
		bases[i], exps[i] = gr.GExp(scalar()), scalar()
	}
	k := scalar()
	enc := gr.EncodeCompressed(bases[0])
	p.probe("group.gexp_us", func() error { gr.GExp(k); return nil })
	p.probe("group.exp_us", func() error { gr.Exp(bases[0], k); return nil })
	p.probe("group.multiexp_t1_us", func() error { gr.VarTimeMultiExp(bases[:t+1], exps[:t+1]); return nil })
	p.probe("group.multiexp_nt_us", func() error { gr.VarTimeMultiExp(bases, exps); return nil })
	p.probe("group.decode_compressed_us", func() error { _, err := gr.DecodeCompressed(enc); return err })

	// poly: the combine step of sign and decrypt.
	keyPoly, err := poly.NewRandom(gr.Q(), t, rng)
	if err != nil {
		return nil, nil, err
	}
	pts := make([]poly.Point, t+1)
	for i := range pts {
		pts[i] = poly.Point{X: int64(i + 1), Y: keyPoly.EvalInt(int64(i + 1))}
	}
	p.probe("poly.interpolate_us", func() error {
		s, err := poly.Interpolate(gr.Q(), pts, 0)
		if err != nil {
			return err
		}
		return must(s.Cmp(keyPoly.Secret()) == 0)
	})

	// commit: what a dealer builds and every receiver verifies.
	const self = 3
	f, err := poly.NewRandomSymmetric(gr.Q(), scalar(), t, rng)
	if err != nil {
		return nil, nil, err
	}
	m := commit.NewMatrix(gr, f)
	row := f.Row(self)
	alphas := make([]*big.Int, n+1)
	for s := int64(1); s <= int64(n); s++ {
		alphas[s] = f.Eval(s, self)
	}
	mEnc, err := m.MarshalCompressed()
	if err != nil {
		return nil, nil, err
	}
	p.probe("commit.new_matrix_us", func() error { commit.NewMatrix(gr, f); return nil })
	p.probe("commit.verify_poly_us", func() error { return must(m.VerifyPoly(self, row)) })
	p.probe("commit.verify_point_us", func() error { return must(m.VerifyPoint(self, 1, alphas[1])) })
	p.probe("commit.batch_flush_n_us", func() error {
		bv := commit.NewBatchVerifier(gr)
		for s := int64(1); s <= int64(n); s++ {
			bv.AddPoint(s, m, self, s, alphas[s])
		}
		return must(bv.Flush() == nil)
	})
	p.probe("commit.unmarshal_matrix_us", func() error { _, err := commit.UnmarshalMatrix(gr, mEnc); return err })

	// sig: the ed25519 signatures on readies and proposals.
	scheme, err := sig.ByName("ed25519")
	if err != nil {
		return nil, nil, err
	}
	priv, pub, err := scheme.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	dir := sig.NewDirectory(scheme)
	if err := dir.Add(1, pub); err != nil {
		return nil, nil, err
	}
	session := vss.SessionID{Dealer: 1, Tau: 1}
	transcript := vss.ReadyTranscript(session, m.Hash())
	signature, err := scheme.Sign(priv, transcript)
	if err != nil {
		return nil, nil, err
	}
	p.probe("sig.sign_us", func() error { _, err := scheme.Sign(priv, transcript); return err })
	p.probe("sig.verify_us", func() error { return must(dir.Verify(1, transcript, signature)) })

	// msg: the dealer's send (a compressed (t+1)² matrix plus a row)
	// and the digest-referenced echo that makes up most of the flood.
	codec := msg.NewCodec()
	if err := vss.RegisterCodec(codec, gr); err != nil {
		return nil, nil, err
	}
	send := &vss.SendMsg{Session: session, C: m, A: row.Coeffs(), Compressed: true}
	echo := &vss.EchoMsg{Session: session, CHash: m.Hash(), Alpha: alphas[1]}
	encode := func(body msg.Body) ([]byte, error) {
		env, err := msg.SealSession(1, 2, 1, body)
		if err != nil {
			return nil, err
		}
		return msg.EncodeEnvelope(env), nil
	}
	sendEnc, err := encode(send)
	if err != nil {
		return nil, nil, err
	}
	p.values["msg.send_bytes"] = float64(len(sendEnc))
	p.samples["msg.send_bytes"] = 1
	p.probe("msg.encode_send_us", func() error { _, err := encode(send); return err })
	p.probe("msg.decode_send_us", func() error {
		env, err := msg.DecodeEnvelope(sendEnc)
		if err != nil {
			return err
		}
		_, err = codec.Open(env)
		return err
	})
	p.probe("msg.encode_echo_us", func() error { _, err := encode(echo); return err })

	// transport: framing and MAC, then a real loopback round trip.
	secret := make([]byte, 32)
	rng.Read(secret) //nolint:errcheck // the seeded reader never fails
	frame, err := transport.SealFrame(secret, 1, 1, 2, echo)
	if err != nil {
		return nil, nil, err
	}
	batch := make([]msg.Body, 8)
	for i := range batch {
		batch[i] = echo
	}
	p.probe("transport.seal_us", func() error { _, err := transport.SealFrame(secret, 1, 1, 2, echo); return err })
	p.probe("transport.open_us", func() error { _, _, _, err := transport.DecodeFrame(codec, secret, 2, frame[4:]); return err })
	p.probe("transport.seal_batch8_us", func() error { _, err := transport.SealBatchFrame(secret, 1, 1, 2, batch); return err })
	if err := p.probeRTT(codec, secret, echo); err != nil {
		return nil, nil, err
	}

	// store: one WAL append with and without its fsync, one snapshot.
	envelope, err := msg.SealSession(1, 2, 1, echo)
	if err != nil {
		return nil, nil, err
	}
	snapshot := make([]byte, 8<<10)
	rng.Read(snapshot) //nolint:errcheck // the seeded reader never fails
	for _, leg := range []struct {
		name      string
		syncEvery int
	}{{"store.append_sync_us", 1}, {"store.append_nosync_us", -1}} {
		stDir := filepath.Join(outDir, "layers.state")
		os.RemoveAll(stDir)
		st, err := store.Open(stDir, store.Options{SyncEvery: leg.syncEvery})
		if err != nil {
			return nil, nil, err
		}
		p.probe(leg.name, func() error { return st.AppendFrame(1, envelope) })
		if leg.syncEvery == 1 {
			p.probe("store.snapshot_us", func() error { return st.SaveSnapshot(1, snapshot) })
		}
		st.Close()
		os.RemoveAll(stDir)
	}

	// thresh: the partial, verify and combine steps of one request.
	noncePoly, err := poly.NewRandom(gr.Q(), t, rng)
	if err != nil {
		return nil, nil, err
	}
	keyV, nonceV := commit.NewVector(gr, keyPoly), commit.NewVector(gr, noncePoly)
	share := func(i int64, pl *poly.Poly, v *commit.Vector) thresh.KeyShare {
		return thresh.KeyShare{Self: msg.NodeID(i), Share: pl.EvalInt(i), V: v}
	}
	message := make([]byte, 32)
	rng.Read(message) //nolint:errcheck // the seeded reader never fails
	partials := make([]thresh.PartialSig, t+1)
	for i := range partials {
		id := int64(i + 1)
		if partials[i], err = thresh.PartialSign(gr, share(id, keyPoly, keyV), share(id, noncePoly, nonceV), message); err != nil {
			return nil, nil, err
		}
	}
	plain := gr.GExp(scalar())
	ct, err := thresh.Encrypt(gr, keyV.PublicKey(), plain, rng)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]thresh.PartialDecryption, t+1)
	for i := range parts {
		if parts[i], err = thresh.PartialDecrypt(gr, share(int64(i+1), keyPoly, keyV), ct, rng); err != nil {
			return nil, nil, err
		}
	}
	p.probe("thresh.partial_sign_us", func() error {
		_, err := thresh.PartialSign(gr, share(1, keyPoly, keyV), share(1, noncePoly, nonceV), message)
		return err
	})
	p.probe("thresh.combine_us", func() error {
		_, err := thresh.Combine(gr, keyV, nonceV, t, message, partials)
		return err
	})
	p.probe("thresh.partial_decrypt_us", func() error {
		_, err := thresh.PartialDecrypt(gr, share(1, keyPoly, keyV), ct, rng)
		return err
	})
	p.probe("thresh.verify_partial_decrypt_us", func() error {
		return must(thresh.VerifyPartialDecryption(gr, keyV, ct, parts[0]))
	})
	p.probe("thresh.combine_decrypt_us", func() error {
		got, err := thresh.CombineDecrypt(gr, keyV, t, ct, parts)
		if err != nil {
			return err
		}
		return must(got.Equal(plain))
	})

	// simnet: the same protocols with no fabric, one goroutine. TCP
	// latency minus what the cores can do with this much work is
	// fabric and waiting. The message and byte counts repeat exactly
	// per seed.
	p.probe("vss.simnet_share_ms", func() error {
		res, err := harness.RunVSS(harness.VSSOptions{N: n, T: t, Seed: seed, Group: gr, DedupDealings: true, CompressedWire: true})
		if err != nil {
			return err
		}
		return must(res.HonestDone() == n)
	})
	p.probe("dkg.simnet_ms", func() error {
		res, err := harness.RunDKG(harness.DKGOptions{N: n, T: t, Seed: seed, Group: gr, DedupDealings: true, CompressedWire: true, NoTrace: true})
		if err != nil {
			return err
		}
		p.values["dkg.simnet_msgs"] = float64(res.Stats.TotalMsgs)
		p.values["dkg.simnet_bytes"] = float64(res.Stats.TotalBytes)
		return must(res.HonestDone() == n)
	})
	p.samples["dkg.simnet_msgs"], p.samples["dkg.simnet_bytes"] = 1, 1
	dp, err := harness.NewDataPlaneCluster(harness.DataPlaneOptions{N: n, T: t, Seed: seed, Group: gr})
	if err != nil {
		return nil, nil, err
	}
	// Nonces come from the fixture's dealer, up front: the aux DKG a
	// signature costs in production is dkg.simnet_ms above.
	if err := dp.PrefillNonces(1, iters+1); err != nil {
		return nil, nil, err
	}
	// Requests are distinct, so the result cache cannot answer; they
	// are made, and their replies checked, off the clock.
	var (
		req    []byte
		sg     thresh.Signature
		reqCT  thresh.Ciphertext
		wantPl group.Element
		gotPl  group.Element
	)
	fresh := func() error {
		req = make([]byte, 32)
		rng.Read(req) //nolint:errcheck // the seeded reader never fails
		wantPl = gr.GExp(scalar())
		var err error
		reqCT, err = thresh.Encrypt(gr, dp.KeyV.PublicKey(), wantPl, rng)
		return err
	}
	if err := fresh(); err != nil {
		return nil, nil, err
	}
	p.probeChecked("dataplane.simnet_sign_us", func() (err error) {
		sg, err = dp.Sign(1, req)
		return err
	}, func() error {
		if !thresh.Verify(gr, dp.KeyV.PublicKey(), req, sg) {
			return errWrong
		}
		return fresh()
	})
	p.probeChecked("dataplane.simnet_decrypt_us", func() (err error) {
		gotPl, err = dp.Decrypt(1, reqCT)
		return err
	}, func() error {
		if !gotPl.Equal(wantPl) {
			return errWrong
		}
		return fresh()
	})
	if p.err != nil {
		return nil, nil, fmt.Errorf("layers: %w", p.err)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(outDir, "layers.spans.jsonl")); err != nil {
			return nil, nil, err
		}
	}
	return p.values, p.samples, nil
}

// probeRTT measures transport.rtt_us: two transport nodes on
// loopback, coalescing on, bouncing one small body. This is one
// fabric hop there and back: queue, seal, write, read, open, dispatch.
func (p *layerPass) probeRTT(codec *msg.Codec, secret []byte, body msg.Body) error {
	if p.err != nil {
		return nil
	}
	handlers := []*pingPong{{heard: make(chan struct{}, 1)}, {}}
	// Like newCluster: a reserved port taken in the close-to-bind
	// window rebuilds the pair, up to three times.
	listen := func() error {
		addrs, err := freePorts(2)
		if err != nil {
			return err
		}
		peers := []transport.Peer{{ID: 1, Addr: addrs[0]}, {ID: 2, Addr: addrs[1]}}
		for i, h := range handlers {
			node, err := transport.Listen(transport.Config{
				Self: msg.NodeID(i + 1), Listen: addrs[i], Peers: peers,
				Codec: codec, Secret: secret, Handler: h, Coalesce: true,
			})
			if err != nil {
				if i > 0 {
					handlers[0].node.Close()
				}
				return err
			}
			h.node = node
		}
		return nil
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = listen(); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("transport.rtt_us: %w", err)
	}
	for _, h := range handlers {
		defer h.node.Close()
	}
	p.probe("transport.rtt_us", func() error {
		handlers[0].node.Send(2, body)
		select {
		case <-handlers[0].heard:
			return nil
		case <-time.After(opTimeout):
			return errDeadline
		}
	})
	return nil
}
