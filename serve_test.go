package hybriddkg

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"net"
	"testing"
	"time"

	"hybriddkg/internal/dataplane"
	"hybriddkg/internal/engine"
	"hybriddkg/internal/thresh"
)

// serveCluster starts n in-memory Serve nodes on loopback, retrying the
// whole build when a reserved port is taken between close and bind.
func serveCluster(t *testing.T, n, thr int, leader NodeID) []*Server {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		lastErr = nil
		peers := make([]PeerAddr, n)
		for i := range peers {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			peers[i] = PeerAddr{ID: NodeID(i + 1), Addr: ln.Addr().String()}
			ln.Close()
		}
		rings, err := NewKeyRings(n, "ed25519")
		if err != nil {
			t.Fatal(err)
		}
		var nodes []*Server
		for i := 0; i < n && lastErr == nil; i++ {
			var srv *Server
			srv, lastErr = Serve(ServerConfig{
				Self: NodeID(i + 1), Roster: Roster{N: n, T: thr}, Listen: peers[i].Addr, Peers: peers,
				Keys: rings[i], InitialLeader: leader, VerifyWorkers: 2, ShardSessions: true,
			})
			if lastErr == nil {
				nodes = append(nodes, srv)
			}
		}
		if lastErr == nil {
			t.Cleanup(func() {
				for _, srv := range nodes {
					srv.Close()
				}
			})
			return nodes
		}
		for _, srv := range nodes {
			srv.Close()
		}
	}
	t.Fatalf("cluster build: %v", lastErr)
	return nil
}

// TestServeReleasesCompletedRunners: an in-memory node has no use for a
// finished session's state machine — nothing can reach it — so the
// engine lets go of it on completion, and the session's late frames
// are still turned away by the router as stale, before any protocol or
// signature code runs.
func TestServeReleasesCompletedRunners(t *testing.T) {
	const n, thr, sid = 4, 1, 1
	nodes := serveCluster(t, n, thr, 2)
	// Nodes 2..4 are a ready quorum (n−t−f = 3); node 1 joins late.
	for _, srv := range nodes[1:] {
		srv.Start(sid)
	}
	for _, srv := range nodes[1:] {
		select {
		case ev := <-srv.Events():
			if ev.Session != sid {
				t.Fatalf("event for session %d", ev.Session)
			}
		case fl := <-srv.Failures():
			t.Fatalf("session failed: %v", fl.Err)
		case <-time.After(30 * time.Second):
			t.Fatal("session did not complete")
		}
	}
	for i, srv := range nodes[1:] {
		if st := srv.eng.State(sid); st != engine.StateCompleted {
			t.Fatalf("node %d: session state %v", i+2, st)
		}
		if _, kept := srv.eng.Completed(sid); kept {
			t.Fatalf("node %d retains the completed session's runner", i+2)
		}
	}
	// Node 1 now deals into a session its peers have retired.
	nodes[0].Start(sid)
	deadline := time.Now().Add(10 * time.Second)
	for _, srv := range nodes[1:] {
		for srv.tnode.DemuxStats().StaleSession == 0 {
			if time.Now().After(deadline) {
				t.Fatal("late frames of a completed session were not counted stale")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// awaitSession waits for every node to report session sid complete.
func awaitSession(t *testing.T, nodes []*Server, sid uint64) SessionEvent {
	t.Helper()
	var last SessionEvent
	for i, srv := range nodes {
		select {
		case ev := <-srv.Events():
			if ev.Session != sid {
				t.Fatalf("node %d: event for session %d, want %d", i+1, ev.Session, sid)
			}
			last = ev
		case fl := <-srv.Failures():
			t.Fatalf("node %d: session %d failed: %v", i+1, fl.Session, fl.Err)
		case <-time.After(30 * time.Second):
			t.Fatalf("node %d: session %d did not complete", i+1, sid)
		}
	}
	return last
}

// signAll signs every message under key 1 through srv's own service
// and checks the signatures.
func signAll(t *testing.T, srv *Server, pk Element, messages [][]byte) {
	t.Helper()
	type outcome struct {
		i   int
		res dataplane.Result
		err error
	}
	done := make(chan outcome, len(messages))
	for i, m := range messages {
		i := i
		if err := srv.svc.Sign(1, m, func(res dataplane.Result, err error) { done <- outcome{i, res, err} }); err != nil {
			t.Fatalf("sign %q: %v", m, err)
		}
	}
	srv.svc.Flush(1)
	for range messages {
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("sign %q: %v", messages[o.i], o.err)
			}
			if !thresh.Verify(srv.gr, pk, messages[o.i], o.res.Sig) {
				t.Fatalf("signature on %q does not verify", messages[o.i])
			}
		case <-time.After(60 * time.Second):
			t.Fatal("signatures did not complete")
		}
	}
}

// TestServeDecryptStartsNoSession: auxiliary DKGs are provisioned for
// the operation that needs them. A key that has only ever decrypted has
// run one session on every node: its own.
func TestServeDecryptStartsNoSession(t *testing.T) {
	nodes := serveCluster(t, 4, 1, 1)
	for _, srv := range nodes {
		srv.Start(1)
	}
	pk := awaitSession(t, nodes, 1).PublicKey
	gr := nodes[0].gr
	done := make(chan error, 100)
	for i := 0; i < 100; i++ {
		plain := gr.GExp(big.NewInt(int64(1000 + i)))
		ct, err := thresh.Encrypt(gr, pk, plain, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		err = nodes[0].svc.Decrypt(1, ct, func(res dataplane.Result, err error) {
			if err == nil && !res.Plain.Equal(plain) {
				err = errors.New("wrong plaintext")
			}
			done <- err
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[0].svc.Flush(1)
	}
	for i := 0; i < 100; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("decryptions did not complete")
		}
	}
	for i, srv := range nodes {
		if st := srv.EngineStats(); st.Submitted != 1 || st.Completed != 1 {
			t.Fatalf("node %d after 100 decrypts: engine %+v, want the key session alone", i+1, st)
		}
	}
}

// TestServeRestartDoesNotRearmNonces: the books of which nonce signed
// which digest live in memory, so across a restart nonce material must
// not survive. Sign, stop every node, bring them back from their state
// directories, sign other messages: no nonce id may have signed two
// digests on any node, counting both incarnations — a nonce session
// that had completed before the restart is not re-installed, and the
// aggregator's counter resumes above every session it had derived.
func TestServeRestartDoesNotRearmNonces(t *testing.T) {
	const n, thr = 4, 1
	rings, err := NewKeyRings(n, "ed25519")
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]PeerAddr, n)
	dirs := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = PeerAddr{ID: NodeID(i + 1), Addr: ln.Addr().String()}
		ln.Close()
		dirs[i] = t.TempDir()
	}
	boot := func() []*Server {
		nodes := make([]*Server, n)
		for i := range nodes {
			srv, err := Serve(ServerConfig{
				Self: NodeID(i + 1), Roster: Roster{N: n, T: thr}, Listen: peers[i].Addr, Peers: peers,
				Keys: rings[i], VerifyWorkers: 2, StateDir: dirs[i], Logf: func(string, ...any) {},
			})
			if err != nil {
				t.Fatalf("serve node %d: %v", i+1, err)
			}
			nodes[i] = srv
		}
		return nodes
	}
	// ledger folds every node's spent nonces into one id → digest book
	// per node, failing on an id with two digests.
	books := make([]map[uint64][32]byte, n)
	for i := range books {
		books[i] = make(map[uint64][32]byte)
	}
	ledger := func(nodes []*Server) {
		for i, srv := range nodes {
			for id, digest := range srv.svc.NonceLedger() {
				if prev, ok := books[i][id]; ok && prev != digest {
					t.Fatalf("node %d: nonce %x signed two digests", i+1, id)
				}
				books[i][id] = digest
			}
		}
	}
	messages := func(tag string, k int) [][]byte {
		out := make([][]byte, k)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("%s-%d", tag, i))
		}
		return out
	}

	nodes := boot()
	for _, srv := range nodes {
		srv.Start(1)
	}
	pk := awaitSession(t, nodes, 1).PublicKey
	signAll(t, nodes[0], pk, messages("before", 12))
	ledger(nodes)
	spent := len(books[0])
	if spent == 0 {
		t.Fatal("no nonce on the aggregator's books after 12 signatures")
	}
	for _, srv := range nodes {
		srv.Close()
	}

	nodes = boot()
	defer func() {
		for _, srv := range nodes {
			srv.Close()
		}
	}()
	restored := make(chan error, n)
	for _, srv := range nodes {
		srv := srv
		go func() {
			_, err := srv.Restore()
			restored <- err
		}()
	}
	if again := awaitSession(t, nodes, 1).PublicKey; !again.Equal(pk) {
		t.Fatal("restored key session reports another public key")
	}
	for range nodes {
		if err := <-restored; err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	for i, srv := range nodes {
		if got := len(srv.svc.NonceLedger()); got != 0 {
			t.Fatalf("node %d restarted with %d spent nonces on its books", i+1, got)
		}
		for _, k := range srv.svc.KeysSnapshot() {
			if k.Reservoir != 0 {
				t.Fatalf("node %d restarted with %d nonces in its reservoir", i+1, k.Reservoir)
			}
		}
	}
	signAll(t, nodes[0], pk, messages("after", 12))
	ledger(nodes)
	if len(books[0]) < spent+12 {
		t.Fatalf("aggregator spent %d nonces over both incarnations, want at least %d distinct ones", len(books[0]), spent+12)
	}
}

// TestServeStaggeredStartStrandsNothing: seven nodes learn of a session
// 30 ms apart — an operator's Start loop that stalls, a Prepare that is
// handled late — while the nodes that are ahead deal at once. Frames
// that reach a node before it has registered the session wait for it
// (transport early-frame admission), so every node completes: a key
// session, which needs t+1 dealers, and a nonce session, which needs
// n−t−f of them and is begun on every node the way a Prepare begins it.
// Nothing may expire or overflow on the way, and no frame may be
// dropped as belonging to an unknown session.
func TestServeStaggeredStartStrandsNothing(t *testing.T) {
	const n, thr = 7, 2
	nodes := serveCluster(t, n, thr, 1)
	stagger := func(sid uint64) {
		for _, srv := range nodes {
			srv.Start(sid)
			time.Sleep(30 * time.Millisecond)
		}
	}
	stagger(1)
	awaitSession(t, nodes, 1)

	const width = 4
	nonce := dataplane.NonceSessionSID(1, 1, 1<<20, width)
	_, _, rows := dataplane.SessionShape(nonce, n, thr, 0)
	stagger(uint64(nonce))
	deadline := time.Now().Add(30 * time.Second)
	for i, srv := range nodes {
		for srv.eng.State(nonce) != engine.StateCompleted {
			select {
			case fl := <-srv.Failures():
				t.Fatalf("node %d: session %x failed: %v", i+1, fl.Session, fl.Err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d: nonce session stranded in state %v; demux %+v", i+1, srv.eng.State(nonce), srv.tnode.DemuxStats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if ks := nodes[0].svc.KeysSnapshot(); len(ks) != 1 || ks[0].Reservoir != width*rows {
		t.Fatalf("the session's owner holds %+v, want %d nonces", ks, width*rows)
	}
	held := 0
	for i, srv := range nodes {
		st := srv.tnode.DemuxStats()
		if st.EarlyExpired != 0 || st.EarlyOverflow != 0 || st.UnknownSession != 0 || st.EarlyReleased != st.EarlyHeld {
			t.Fatalf("node %d lost early frames: %+v", i+1, st)
		}
		held += st.EarlyHeld
	}
	if held == 0 {
		t.Fatal("no frame arrived ahead of its session's registration: the stagger tested nothing")
	}
}

// TestNewKeyRingsRefusesOtherSchemes: a node authenticates its peers
// with Ed25519 only, so key material for any other scheme — above all
// "null", which verifies every signature — is never generated.
func TestNewKeyRingsRefusesOtherSchemes(t *testing.T) {
	for _, name := range []string{"null", "schnorr-test256", "nope"} {
		if _, err := NewKeyRings(4, name); !errors.Is(err, ErrBadOptions) {
			t.Errorf("NewKeyRings(4, %q): err = %v, want ErrBadOptions", name, err)
		}
	}
	rings, err := NewKeyRings(4, "ed25519")
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != 4 || len(rings[0].Public) != 4 {
		t.Fatalf("rings: %d, directory %d", len(rings), len(rings[0].Public))
	}
}
