package transport_test

import (
	"bytes"
	"math/big"
	"testing"
	"time"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/transport"
	"hybriddkg/internal/vss"
)

// TestBatchFrameRoundTrip: a sealed batch frame decodes to the same
// bodies in the same order, and a v1 frame still decodes through the
// same entry point — the two formats coexist on one link.
func TestBatchFrameRoundTrip(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("batch-secret")
	session := vss.SessionID{Dealer: 3, Tau: 7}
	bodies := []msg.Body{
		&vss.HelpMsg{Session: session},
		&vss.RecShareMsg{Session: session, Share: big.NewInt(4242)},
		&dkg.HelpMsg{Tau: 7},
	}
	frame, err := transport.SealBatchFrame(secret, 9, 3, 1, bodies)
	if err != nil {
		t.Fatal(err)
	}
	sid, from, got, err := transport.DecodeFrameMulti(codec, secret, 1, frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if sid != 9 || from != 3 {
		t.Fatalf("routing header: sid=%d from=%d", sid, from)
	}
	if len(got) != len(bodies) {
		t.Fatalf("decoded %d bodies, want %d", len(got), len(bodies))
	}
	for i, b := range got {
		want, _ := bodies[i].MarshalBinary()
		back, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, back) {
			t.Fatalf("body %d not field-identical after round trip", i)
		}
	}

	v1, err := transport.SealFrame(secret, 9, 3, 1, bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	_, _, single, err := transport.DecodeFrameMulti(codec, secret, 1, v1[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 {
		t.Fatalf("v1 frame decoded to %d bodies", len(single))
	}
}

// TestBatchFrameSpliceRejected: the MAC covers the whole batch — no
// bit of the routing header, count, sub-headers or payloads can be
// altered, no envelope moved between frames, and no frame accepted by
// the wrong recipient or under the wrong secret.
func TestBatchFrameSpliceRejected(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("batch-secret")
	session := vss.SessionID{Dealer: 1, Tau: 1}
	bodies := []msg.Body{
		&vss.HelpMsg{Session: session},
		&vss.RecShareMsg{Session: session, Share: big.NewInt(5)},
	}
	frame, err := transport.SealBatchFrame(secret, 2, 1, 4, bodies)
	if err != nil {
		t.Fatal(err)
	}
	inner := frame[4:]

	// Every single-bit flip must be rejected.
	for i := range inner {
		mut := append([]byte(nil), inner...)
		mut[i] ^= 1
		if _, _, _, err := transport.DecodeFrameMulti(codec, secret, 4, mut); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	// Wrong recipient.
	if _, _, _, err := transport.DecodeFrameMulti(codec, secret, 3, inner); err == nil {
		t.Fatal("frame for node 4 accepted by node 3")
	}
	// Wrong secret.
	if _, _, _, err := transport.DecodeFrameMulti(codec, []byte("other"), 4, inner); err == nil {
		t.Fatal("frame authenticated under the wrong secret")
	}
	// Truncations.
	for cut := 1; cut < len(inner); cut += 7 {
		if _, _, _, err := transport.DecodeFrameMulti(codec, secret, 4, inner[:len(inner)-cut]); err == nil {
			t.Fatalf("truncated frame (-%d) accepted", cut)
		}
	}
	// Empty batch.
	empty, err := transport.SealBatchFrame(secret, 2, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := transport.DecodeFrameMulti(codec, secret, 4, empty[4:]); err == nil {
		t.Fatal("empty batch frame accepted")
	}
}

// coalescePair starts a sender/receiver transport pair on localhost
// and returns the sender node plus the receiver's delivery channel.
func coalescePair(t *testing.T, coalesce bool) (*transport.Node, chan msg.Body) {
	t.Helper()
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("pair-secret")
	got := make(chan msg.Body, 256)
	recv, err := transport.Listen(transport.Config{
		Self:    2,
		Listen:  "127.0.0.1:0",
		Codec:   codec,
		Secret:  secret,
		Handler: &relay{inner: sinkHandler{ch: got}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	send, err := transport.Listen(transport.Config{
		Self:     1,
		Listen:   "127.0.0.1:0",
		Peers:    []transport.Peer{{ID: 2, Addr: recv.Addr()}},
		Codec:    codec,
		Secret:   secret,
		Handler:  &relay{},
		Coalesce: coalesce,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return send, got
}

// TestCoalescedFramingDifferential: the same script of messages sent
// through a coalescing link and a per-message link is delivered
// field-identically and in the same order — coalescing changes the
// framing, never the transcript.
func TestCoalescedFramingDifferential(t *testing.T) {
	script := make([]msg.Body, 0, 40)
	for i := 0; i < 20; i++ {
		session := vss.SessionID{Dealer: 1, Tau: uint64(i)}
		script = append(script,
			&vss.HelpMsg{Session: session},
			&vss.RecShareMsg{Session: session, Share: big.NewInt(int64(1000 + i))},
		)
	}
	transcripts := make([][][]byte, 2)
	for mode, coalesce := range []bool{false, true} {
		send, got := coalescePair(t, coalesce)
		for _, body := range script {
			send.Send(2, body)
		}
		seen := make([][]byte, 0, len(script))
		deadline := time.After(20 * time.Second)
		for len(seen) < len(script) {
			select {
			case body := <-got:
				enc, err := body.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				seen = append(seen, append([]byte{byte(body.MsgType())}, enc...))
			case <-deadline:
				t.Fatalf("coalesce=%v: delivered %d/%d", coalesce, len(seen), len(script))
			}
		}
		transcripts[mode] = seen
	}
	for i := range transcripts[0] {
		if !bytes.Equal(transcripts[0][i], transcripts[1][i]) {
			t.Fatalf("transcripts diverge at message %d", i)
		}
	}
}

// TestCoalescedDKGOverTCP: a full DKG with every node coalescing (the
// wire-format-v2 default of dkgnode) completes with consistent
// results, and the send-side wire books balance: per-frame bytes can
// never undercount the envelopes they carried.
func TestCoalescedDKGOverTCP(t *testing.T) {
	const n, tt = 4, 1
	gr := group.Test256()
	codec := buildCodec(t, gr)
	dir, privs, err := harness.BuildDirectory(sig.Ed25519{}, n, 177)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("coalesced-cluster-secret")

	relays := make([]*relay, n+1)
	nodesT := make([]*transport.Node, n+1)
	peers := make([]transport.Peer, 0, n)
	for i := 1; i <= n; i++ {
		relays[i] = &relay{}
		tn, err := transport.Listen(transport.Config{
			Self:      msg.NodeID(i),
			Listen:    "127.0.0.1:0",
			Codec:     codec,
			Secret:    secret,
			Handler:   relays[i],
			TimerUnit: time.Microsecond * 200,
			Coalesce:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		nodesT[i] = tn
		peers = append(peers, transport.Peer{ID: msg.NodeID(i), Addr: tn.Addr()})
	}
	for i := 1; i <= n; i++ {
		nodesT[i].SetPeers(peers)
	}

	dkgNodes := make([]*dkg.Node, n+1)
	completed := make(chan msg.NodeID, n)
	for i := 1; i <= n; i++ {
		id := msg.NodeID(i)
		params := dkg.Params{
			Group:          gr,
			N:              n,
			T:              tt,
			Directory:      dir,
			SignKey:        privs[id],
			TimeoutBase:    500_000,
			DedupDealings:  true,
			CompressedWire: true,
		}
		node, err := dkg.NewNode(params, 1, id, nodesT[i], dkg.Options{
			OnCompleted: func(dkg.CompletedEvent) { completed <- id },
		})
		if err != nil {
			t.Fatal(err)
		}
		dkgNodes[i] = node
		relays[i].inner = dkgHandler{node: node}
	}
	for i := 1; i <= n; i++ {
		node, tn, seed := dkgNodes[i], nodesT[i], uint64(2000+i)
		tn.Do(func() {
			if err := node.Start(randutil.NewReader(seed)); err != nil {
				t.Errorf("start: %v", err)
			}
		})
	}

	deadline := time.After(30 * time.Second)
	for got := 0; got < n; {
		select {
		case <-completed:
			got++
		case <-deadline:
			t.Fatalf("timeout: %d/%d nodes completed", got, n)
		}
	}
	ref := dkgNodes[1].Result()
	for i := 2; i <= n; i++ {
		res := dkgNodes[i].Result()
		if !res.PublicKey.Equal(ref.PublicKey) {
			t.Fatalf("node %d public key differs", i)
		}
		if !res.V.VerifyShare(int64(i), res.Share) {
			t.Fatalf("node %d share invalid", i)
		}
	}
	// An envelope still queued in a coalescer is booked as envelope
	// bytes but not yet as frame bytes: close every node first, which
	// flushes its queues. Close flushes before it stops the node's
	// loops, so a second pass flushes what those loops sent meanwhile.
	for pass := 0; pass < 2; pass++ {
		for i := 1; i <= n; i++ {
			nodesT[i].Close()
		}
	}
	for i := 1; i <= n; i++ {
		ws := nodesT[i].WireStats()
		if ws.Frames == 0 || ws.FrameBytes == 0 {
			t.Fatalf("node %d: empty wire books: %+v", i, ws)
		}
		var msgs int
		var envBytes int64
		for typ, c := range ws.MsgCount {
			msgs += c
			envBytes += ws.MsgBytes[typ]
		}
		if ws.Frames > msgs {
			t.Fatalf("node %d: more frames (%d) than envelopes (%d)", i, ws.Frames, msgs)
		}
		if ws.FrameBytes < envBytes {
			t.Fatalf("node %d: frame bytes %d < envelope bytes %d", i, ws.FrameBytes, envBytes)
		}
		if len(ws.SessionBytes) == 0 {
			t.Fatalf("node %d: no per-session byte counters", i)
		}
	}
}

// TestMixedFormatCluster: one node on the legacy per-message wire
// format interoperates with three coalescing v2 nodes — the DKG
// completes and all four agree. Every node still decodes v1 frames,
// though the façade and dkgnode only send v2.
func TestMixedFormatCluster(t *testing.T) {
	const n, tt = 4, 1
	gr := group.Test256()
	codec := buildCodec(t, gr)
	dir, privs, err := harness.BuildDirectory(sig.Ed25519{}, n, 277)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("mixed-cluster-secret")

	relays := make([]*relay, n+1)
	nodesT := make([]*transport.Node, n+1)
	peers := make([]transport.Peer, 0, n)
	for i := 1; i <= n; i++ {
		relays[i] = &relay{}
		tn, err := transport.Listen(transport.Config{
			Self:      msg.NodeID(i),
			Listen:    "127.0.0.1:0",
			Codec:     codec,
			Secret:    secret,
			Handler:   relays[i],
			TimerUnit: time.Microsecond * 200,
			Coalesce:  i != 1, // node 1 stays on wire format v1
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		nodesT[i] = tn
		peers = append(peers, transport.Peer{ID: msg.NodeID(i), Addr: tn.Addr()})
	}
	for i := 1; i <= n; i++ {
		nodesT[i].SetPeers(peers)
	}

	dkgNodes := make([]*dkg.Node, n+1)
	completed := make(chan msg.NodeID, n)
	for i := 1; i <= n; i++ {
		id := msg.NodeID(i)
		params := dkg.Params{
			Group:       gr,
			N:           n,
			T:           tt,
			Directory:   dir,
			SignKey:     privs[id],
			TimeoutBase: 500_000,
		}
		if i != 1 {
			// v2 nodes also dedup and compress; node 1 sends classic
			// full dealings. Receivers on both sides accept both.
			params.DedupDealings = true
			params.CompressedWire = true
		}
		node, err := dkg.NewNode(params, 1, id, nodesT[i], dkg.Options{
			OnCompleted: func(dkg.CompletedEvent) { completed <- id },
		})
		if err != nil {
			t.Fatal(err)
		}
		dkgNodes[i] = node
		relays[i].inner = dkgHandler{node: node}
	}
	for i := 1; i <= n; i++ {
		node, tn, seed := dkgNodes[i], nodesT[i], uint64(3000+i)
		tn.Do(func() {
			if err := node.Start(randutil.NewReader(seed)); err != nil {
				t.Errorf("start: %v", err)
			}
		})
	}

	deadline := time.After(30 * time.Second)
	for got := 0; got < n; {
		select {
		case <-completed:
			got++
		case <-deadline:
			t.Fatalf("timeout: %d/%d nodes completed", got, n)
		}
	}
	ref := dkgNodes[1].Result()
	for i := 2; i <= n; i++ {
		res := dkgNodes[i].Result()
		if !res.PublicKey.Equal(ref.PublicKey) {
			t.Fatalf("node %d public key differs", i)
		}
		if !res.V.VerifyShare(int64(i), res.Share) {
			t.Fatalf("node %d share invalid", i)
		}
	}
	if ws := nodesT[1].WireStats(); ws.Frames == 0 {
		t.Fatal("v1 node recorded no frames")
	}
}

// TestCoalesceRetryDeliversAcrossStartupRace: a batch frame sent while
// the peer's listener is not yet up — the cluster-start race — must
// survive on the retry backlog and arrive once the peer appears. This
// matters more under coalescing than it did for v1 frames: one batch
// can carry the dealer's send plus the first echoes, so dropping it
// loses a burst of protocol state the push-based flow never resends.
func TestCoalesceRetryDeliversAcrossStartupRace(t *testing.T) {
	gr := group.Test256()
	codec := buildCodec(t, gr)
	secret := []byte("retry-secret")

	// Reserve an address for the late receiver, then free it so the
	// sender's first flushes fail with connection-refused.
	probe, err := transport.Listen(transport.Config{
		Self: 2, Listen: "127.0.0.1:0", Codec: codec, Secret: secret, Handler: &relay{},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	send, err := transport.Listen(transport.Config{
		Self:     1,
		Listen:   "127.0.0.1:0",
		Peers:    []transport.Peer{{ID: 2, Addr: addr}},
		Codec:    codec,
		Secret:   secret,
		Handler:  &relay{},
		Coalesce: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })

	session := vss.SessionID{Dealer: 1, Tau: 1}
	for i := 0; i < 3; i++ {
		send.Send(2, &vss.RecShareMsg{Session: session, Share: big.NewInt(int64(100 + i))})
	}

	// Let at least one flush attempt fail before the receiver exists.
	time.Sleep(50 * time.Millisecond)

	got := make(chan msg.Body, 16)
	recv, err := transport.Listen(transport.Config{
		Self:    2,
		Listen:  addr,
		Codec:   codec,
		Secret:  secret,
		Handler: &relay{inner: sinkHandler{ch: got}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })

	deadline := time.After(20 * time.Second)
	for seen := 0; seen < 3; {
		select {
		case <-got:
			seen++
		case <-deadline:
			t.Fatalf("retry backlog never delivered: %d/3 messages", seen)
		}
	}
}
