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

// TestServeDecryptStartsNoSession: serving runs no DKG. A key that has
// decrypted a hundred ciphertexts and opened five beacon rounds — through
// two aggregators, which agree on every round — has run one session on
// every node: its own.
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
	beacon := func(agg *Server, round uint64) [32]byte {
		t.Helper()
		ch := make(chan dataplane.Result, 1)
		if err := agg.svc.Beacon(1, round, func(res dataplane.Result, err error) {
			if err != nil {
				t.Errorf("round %d: %v", round, err)
			}
			ch <- res
		}); err != nil {
			t.Fatal(err)
		}
		agg.svc.Flush(1)
		select {
		case res := <-ch:
			return res.Beacon.Output
		case <-time.After(60 * time.Second):
			t.Fatalf("round %d did not complete", round)
		}
		return [32]byte{}
	}
	for round := uint64(1); round <= 5; round++ {
		if a, b := beacon(nodes[0], round), beacon(nodes[2], round); a != b {
			t.Fatalf("round %d: aggregators disagree", round)
		}
	}
	for i, srv := range nodes {
		if st := srv.EngineStats(); st.Submitted != 1 || st.Completed != 1 {
			t.Fatalf("node %d after 100 decrypts and 5 beacon rounds: engine %+v, want the key session alone", i+1, st)
		}
	}
}

// TestServeRestartDoesNotRearmNonces: signing nonce pairs live in
// memory only, so a restart forgets them. Under sign load through node
// 1, a signer (node 2) and then the aggregator (node 1) are stopped and
// brought back from their state directories. The key share comes back
// from the WAL: the restored nodes sign again and no honest node is
// evicted. The nonce pairs do not: a restored node holds no commitments
// and has spent none, and the aggregator, refused under pairs the signer
// forgot, fetches new ones. Across both incarnations of every node, no
// commitment id answers two different (m, B).
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
	boot := func(i int) *Server {
		srv, err := Serve(ServerConfig{
			Self: NodeID(i + 1), Roster: Roster{N: n, T: thr}, Listen: peers[i].Addr, Peers: peers,
			Keys: rings[i], VerifyWorkers: 2, StateDir: dirs[i], Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatalf("serve node %d: %v", i+1, err)
		}
		return srv
	}
	nodes := make([]*Server, n)
	for i := range nodes {
		nodes[i] = boot(i)
	}
	defer func() {
		for _, srv := range nodes {
			srv.Close()
		}
	}()
	for _, srv := range nodes {
		srv.Start(1)
	}
	pk := awaitSession(t, nodes, 1).PublicKey

	// books folds every node's spent pairs into one id → (m, B) book per
	// node, failing on an id with two.
	books := make([]map[uint64][32]byte, n)
	for i := range books {
		books[i] = make(map[uint64][32]byte)
	}
	ledger := func() {
		for i, srv := range nodes {
			for id, digest := range srv.svc.NonceLedger() {
				if prev, ok := books[i][id]; ok && prev != digest {
					t.Fatalf("node %d: nonce pair %x answered two (m, B)", i+1, id)
				}
				books[i][id] = digest
			}
		}
	}
	// load signs k messages through node 1 without waiting; a signature
	// that comes back must verify, and closed is the one error allowed.
	load := func(tag string, k int, closed bool) func() {
		srv := nodes[0]
		done := make(chan error, k)
		for i := 0; i < k; i++ {
			m := []byte(fmt.Sprintf("%s-%d", tag, i))
			if err := srv.svc.Sign(1, m, func(res dataplane.Result, err error) {
				if err == nil && !thresh.Verify(srv.gr, pk, m, res.Sig) {
					err = fmt.Errorf("signature on %q does not verify", m)
				}
				if closed && errors.Is(err, dataplane.ErrClosed) {
					err = nil
				}
				done <- err
			}); err != nil {
				t.Fatalf("sign %q: %v", m, err)
			}
		}
		srv.svc.Flush(1)
		return func() {
			for i := 0; i < k; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(60 * time.Second):
					t.Fatalf("%s: signatures did not complete", tag)
				}
			}
		}
	}
	restart := func(i int) {
		ledger()
		nodes[i].Close()
		nodes[i] = boot(i)
		restored := make(chan error, 1)
		go func() {
			_, err := nodes[i].Restore()
			restored <- err
		}()
		if again := awaitSession(t, nodes[i:i+1], 1).PublicKey; !again.Equal(pk) {
			t.Fatal("restored key session reports another public key")
		}
		if err := <-restored; err != nil {
			t.Fatalf("restore node %d: %v", i+1, err)
		}
		if got := len(nodes[i].svc.NonceLedger()); got != 0 {
			t.Fatalf("node %d restarted with %d spent pairs on its books", i+1, got)
		}
		if ks := nodes[i].svc.KeysSnapshot(); len(ks) != 1 || ks[0].Commitments != 0 {
			t.Fatalf("node %d restarted holding commitments: %+v", i+1, ks)
		}
	}

	load("warm", 8, false)()
	wait := load("signer", 48, false)
	restart(1)
	wait()
	load("after-signer", 16, false)()
	// Node 1 had to route around the signer: it was down with answers
	// owed, and back without the pairs node 1 held commitments for.
	if st := nodes[0].ServiceStats(); st.SignAttempts == 0 {
		t.Fatalf("no signing attempt was retried across the signer's restart: %+v", st)
	}
	wait = load("aggregator", 8, true)
	restart(0)
	wait()
	load("after-aggregator", 16, false)()
	ledger()
	if len(books[1]) == 0 {
		t.Fatal("the restarted signer never signed")
	}
	for i, srv := range nodes {
		if st := srv.ServiceStats(); st.Evicted != 0 {
			t.Fatalf("node %d evicted an honest signer: %+v", i+1, st)
		}
	}
}

// TestServeStaggeredStartStrandsNothing: seven nodes learn of a session
// 30 ms apart — an operator's Start loop that stalls — while the nodes
// that are ahead deal at once. Frames that reach a node before it has
// registered the session wait for it (transport early-frame admission),
// so every node completes two key sessions started that way, the second
// while the first is already serving. Nothing may expire or overflow on
// the way, and no frame may be dropped as belonging to an unknown
// session.
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
	stagger(2)
	awaitSession(t, nodes, 2)
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
