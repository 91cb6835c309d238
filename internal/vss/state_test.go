package vss_test

import (
	"bytes"
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/vss"
)

func stateCodec(t *testing.T, gr *group.Group) *msg.Codec {
	t.Helper()
	c := msg.NewCodec()
	if err := vss.RegisterCodec(c, gr); err != nil {
		t.Fatal(err)
	}
	return c
}

type swapAdapter struct{ node *vss.Node }

func (a *swapAdapter) HandleMessage(from msg.NodeID, body msg.Body) { a.node.Handle(from, body) }
func (a *swapAdapter) HandleTimer(uint64)                           {}
func (a *swapAdapter) HandleRecover()                               { a.node.StartRecover() }

// TestStateRoundTripCompleted: a completed node's state survives
// marshal → fresh node → unmarshal with identical outputs, and the
// codec is deterministic (re-marshal produces identical bytes).
func TestStateRoundTripCompleted(t *testing.T) {
	for _, mode := range []struct {
		name             string
		hashed, extended bool
	}{
		{name: "plain"},
		{name: "hashed", hashed: true},
		{name: "extended", extended: true},
		{name: "hashed-extended", hashed: true, extended: true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := harness.VSSOptions{
				N: 7, T: 2, Seed: 42, DMax: 7,
				HashedEcho: mode.hashed, Extended: mode.extended,
			}
			res, err := harness.RunVSS(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.HonestDone() != opts.N {
				t.Fatalf("only %d nodes done", res.HonestDone())
			}
			gr := res.Opts.Group
			codec := stateCodec(t, gr)
			params := vss.Params{
				Group: gr, N: opts.N, T: opts.T, F: opts.F, DMax: opts.DMax,
				HashedEcho: mode.hashed, Extended: mode.extended,
				Directory: res.Directory,
			}
			if mode.extended {
				// Signing key irrelevant post-restore for checks here,
				// but Params.Validate requires one in extended mode.
				params.SignKey = []byte{1}
			}
			for id, node := range res.Nodes {
				st1, err := node.MarshalState()
				if err != nil {
					t.Fatalf("node %d marshal: %v", id, err)
				}
				fresh, err := vss.NewNode(params, res.Session, id, nullSender{}, vss.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.UnmarshalState(codec, st1); err != nil {
					t.Fatalf("node %d unmarshal: %v", id, err)
				}
				if !fresh.Done() {
					t.Fatalf("node %d not done after restore", id)
				}
				if fresh.Share().Cmp(node.Share()) != 0 {
					t.Fatalf("node %d share changed across restore", id)
				}
				if fresh.Commitment().Hash() != node.Commitment().Hash() {
					t.Fatalf("node %d commitment changed across restore", id)
				}
				if len(fresh.ReadyProof()) != len(node.ReadyProof()) {
					t.Fatalf("node %d ready proof lost", id)
				}
				st2, err := fresh.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(st1, st2) {
					t.Fatalf("node %d state codec not deterministic", id)
				}
			}
		})
	}
}

// TestStateRestoreMidProtocol: snapshot a node mid-sharing, swap a
// restored clone into the network, and verify the protocol still
// completes consistently — the continuity property the durable
// snapshot layer relies on.
func TestStateRestoreMidProtocol(t *testing.T) {
	opts := harness.VSSOptions{N: 7, T: 2, Seed: 7, DMax: 7, HashedEcho: true}
	res, err := harness.SetupVSS(&opts)
	if err != nil {
		t.Fatal(err)
	}
	gr := res.Opts.Group
	codec := stateCodec(t, gr)
	dealer := res.Nodes[res.Session.Dealer]
	if err := dealer.ShareSecret(res.Secret, randutil.NewReader(opts.Seed^0xdeadbeef)); err != nil {
		t.Fatal(err)
	}
	// Run part of the protocol, then snapshot+swap node 3.
	res.Net.Run(40)
	victim := msg.NodeID(3)
	st, err := res.Nodes[victim].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	params := vss.Params{Group: gr, N: opts.N, T: opts.T, F: opts.F, DMax: opts.DMax, HashedEcho: true}
	clone, err := vss.NewNode(params, res.Session, victim, res.Net.Env(victim), vss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.UnmarshalState(codec, st); err != nil {
		t.Fatal(err)
	}
	res.Nodes[victim] = clone
	res.Net.Register(victim, &swapAdapter{node: clone})

	res.Net.RunUntil(func() bool {
		for _, nd := range res.Nodes {
			if !nd.Done() {
				return false
			}
		}
		return true
	}, 0)
	for id, nd := range res.Nodes {
		if !nd.Done() {
			t.Fatalf("node %d did not complete after mid-protocol restore", id)
		}
	}
	// All nodes agree on the commitment; the restored node's share is
	// valid against it.
	ref := res.Nodes[1].Commitment().Hash()
	for id, nd := range res.Nodes {
		if nd.Commitment().Hash() != ref {
			t.Fatalf("node %d commitment diverged", id)
		}
	}
	if !clone.Commitment().VerifyShare(int64(victim), clone.Share()) {
		t.Fatal("restored node's share invalid against the commitment")
	}
}

// TestUnmarshalStateRejects: restoring into a used node or from
// corrupt bytes fails cleanly.
func TestUnmarshalStateRejects(t *testing.T) {
	opts := harness.VSSOptions{N: 4, T: 1, Seed: 5, DMax: 4}
	res, err := harness.RunVSS(opts)
	if err != nil {
		t.Fatal(err)
	}
	codec := stateCodec(t, res.Opts.Group)
	st, err := res.Nodes[2].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Non-fresh target.
	if err := res.Nodes[2].UnmarshalState(codec, st); err == nil {
		t.Fatal("restored into a used node")
	}
	params := vss.Params{Group: res.Opts.Group, N: opts.N, T: opts.T, DMax: opts.DMax}
	// Corrupt payloads must error, not panic.
	for cut := 0; cut < len(st); cut += 97 {
		fresh, err := vss.NewNode(params, res.Session, 2, nullSender{}, vss.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalState(codec, st[:cut]); err == nil {
			t.Fatalf("truncated state at %d accepted", cut)
		}
	}
}
