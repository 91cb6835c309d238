package hybriddkg

import (
	"net"
	"testing"
	"time"

	"hybriddkg/internal/engine"
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
