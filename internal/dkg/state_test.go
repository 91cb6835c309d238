package dkg_test

import (
	"bytes"
	"testing"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/vss"
)

func fullCodec(t *testing.T, gr *group.Group) *msg.Codec {
	t.Helper()
	c := msg.NewCodec()
	if err := vss.RegisterCodec(c, gr); err != nil {
		t.Fatal(err)
	}
	if err := dkg.RegisterCodec(c); err != nil {
		t.Fatal(err)
	}
	return c
}

type nullRuntime struct{}

func (nullRuntime) Send(msg.NodeID, msg.Body) {}
func (nullRuntime) SetTimer(uint64, int64)    {}
func (nullRuntime) StopTimer(uint64)          {}

func dkgParamsFor(res *harness.DKGResult, id msg.NodeID) dkg.Params {
	return dkg.Params{
		Group:         res.Opts.Group,
		N:             res.Opts.N,
		T:             res.Opts.T,
		F:             res.Opts.F,
		HashedEcho:    res.Opts.HashedEcho,
		Directory:     res.Directory,
		SignKey:       res.Privs[id],
		InitialLeader: res.Opts.InitialLeader,
		TimeoutBase:   res.Opts.TimeoutBase,
		QSize:         res.Opts.QSize,
	}
}

// TestStateRoundTripCompleted: every completed node's full session
// state (embedded VSS instances included) survives marshal → restore
// with identical results, for an agreed set of t+1 and of n−t−f
// dealers, and the codec is deterministic.
func TestStateRoundTripCompleted(t *testing.T) {
	for _, qsize := range []int{0, 3} {
		testStateRoundTripCompleted(t, qsize)
	}
}

func testStateRoundTripCompleted(t *testing.T, qsize int) {
	res, err := harness.RunDKG(harness.DKGOptions{N: 4, T: 1, Seed: 11, QSize: qsize})
	if err != nil {
		t.Fatal(err)
	}
	if res.HonestDone() != 4 {
		t.Fatalf("only %d nodes done", res.HonestDone())
	}
	codec := fullCodec(t, res.Opts.Group)
	for id, node := range res.Nodes {
		st1, err := node.MarshalState()
		if err != nil {
			t.Fatalf("node %d marshal: %v", id, err)
		}
		restored, err := dkg.RestoreNode(dkgParamsFor(res, id), 1, id, nullRuntime{}, dkg.Options{}, codec, st1)
		if err != nil {
			t.Fatalf("node %d restore: %v", id, err)
		}
		if !restored.Done() {
			t.Fatalf("node %d not done after restore", id)
		}
		orig, got := node.Result(), restored.Result()
		if got.Share.Cmp(orig.Share) != 0 {
			t.Fatalf("node %d share changed across restore", id)
		}
		if !got.PublicKey.Equal(orig.PublicKey) {
			t.Fatalf("node %d public key changed across restore", id)
		}
		if len(got.Q) != len(orig.Q) {
			t.Fatalf("node %d decided set changed across restore", id)
		}
		for i := range got.Q {
			if got.Q[i] != orig.Q[i] {
				t.Fatalf("node %d decided set changed across restore", id)
			}
		}
		if !got.V.Equal(orig.V) {
			t.Fatalf("node %d vector commitment changed across restore", id)
		}
		st2, err := restored.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st1, st2) {
			t.Fatalf("node %d state codec not deterministic", id)
		}
	}
}

// TestStateRestoreMidProtocol: snapshot a node partway through the
// DKG, swap in a restored clone, and require the whole cluster to
// finish consistently.
func TestStateRestoreMidProtocol(t *testing.T) {
	for _, qsize := range []int{0, 3} {
		testStateRestoreMidProtocol(t, qsize)
	}
}

func testStateRestoreMidProtocol(t *testing.T, qsize int) {
	opts := harness.DKGOptions{N: 4, T: 1, Seed: 23, HashedEcho: true, QSize: qsize}
	res, err := harness.SetupDKG(&opts)
	if err != nil {
		t.Fatal(err)
	}
	codec := fullCodec(t, res.Opts.Group)
	for i := 1; i <= opts.N; i++ {
		id := msg.NodeID(i)
		if err := res.Nodes[id].Start(randutil.NewReader(opts.Seed ^ uint64(id)*77)); err != nil {
			t.Fatal(err)
		}
	}
	res.Net.Run(150) // partway: dealing and echoes in flight

	victim := msg.NodeID(2)
	if res.Nodes[victim].Done() {
		t.Fatal("snapshot point too late: victim already completed")
	}
	st, err := res.Nodes[victim].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := dkg.RestoreNode(dkgParamsFor(res, victim), 1, victim, res.Net.Env(victim),
		dkg.Options{OnCompleted: func(ev dkg.CompletedEvent) { res.Completed[victim] = ev }},
		codec, st)
	if err != nil {
		t.Fatal(err)
	}
	res.Nodes[victim] = clone
	res.Net.Register(victim, &restoredAdapter{node: clone})

	ok := res.Net.RunUntil(func() bool {
		for _, nd := range res.Nodes {
			if !nd.Done() {
				return false
			}
		}
		return true
	}, 0)
	if !ok {
		t.Fatal("cluster did not complete after mid-protocol restore")
	}
	res.Net.Run(0)
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

type restoredAdapter struct{ node *dkg.Node }

func (a *restoredAdapter) HandleMessage(from msg.NodeID, body msg.Body) { a.node.Handle(from, body) }
func (a *restoredAdapter) HandleTimer(id uint64)                        { a.node.HandleTimer(id) }
func (a *restoredAdapter) HandleRecover()                               { a.node.HandleRecover() }

// TestUnmarshalStateRejects: session mismatch, reuse and truncation
// all fail cleanly.
func TestUnmarshalStateRejects(t *testing.T) {
	res, err := harness.RunDKG(harness.DKGOptions{N: 4, T: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	codec := fullCodec(t, res.Opts.Group)
	st, err := res.Nodes[1].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Wrong session counter.
	if _, err := dkg.RestoreNode(dkgParamsFor(res, 1), 2, 1, nullRuntime{}, dkg.Options{}, codec, st); err == nil {
		t.Fatal("restored a session-1 snapshot into session 2")
	}
	// Non-fresh target.
	if err := res.Nodes[1].UnmarshalState(codec, st); err == nil {
		t.Fatal("restored into a used node")
	}
	// Truncations error rather than panic.
	for cut := 0; cut < len(st); cut += 1031 {
		if _, err := dkg.RestoreNode(dkgParamsFor(res, 1), 1, 1, nullRuntime{}, dkg.Options{}, codec, st[:cut]); err == nil {
			t.Fatalf("truncated state at %d accepted", cut)
		}
	}
}
