package dkg_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/simnet"
)

// TestExtraction runs sessions that agree on n−t−f dealers, the largest
// set Params.QSize allows, and sum them into one key pair, as a
// threshold-decreasing renewal agrees on more than t+1 (the name is
// from when such sessions extracted several outputs). Every node must
// agree on a set of that size and the key must be consistent.
func TestExtraction(t *testing.T) {
	for _, shape := range [][3]int{{4, 1, 0}, {7, 2, 0}, {10, 2, 1}} {
		n, thr, f := shape[0], shape[1], shape[2]
		qsize := n - thr - f
		t.Run(fmt.Sprintf("w1/n%d", n), func(t *testing.T) {
			res, err := harness.RunDKG(harness.DKGOptions{
				N: n, T: thr, F: f, Seed: uint64(100 + n), QSize: qsize,
				DedupDealings: true, CompressedWire: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.HonestDone() != n {
				t.Fatalf("%d of %d nodes completed", res.HonestDone(), n)
			}
			if err := res.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if got := len(res.Completed[1].Q); got != qsize {
				t.Fatalf("agreed on %d dealers, want %d", got, qsize)
			}
		})
	}
}

// TestExtractionRowBound: the agreed set holds between t+1 sharings
// (Fig. 2) and n−t−f (all that are sure to complete); a node refuses a
// QSize outside that range.
func TestExtractionRowBound(t *testing.T) {
	res, err := harness.SetupDKG(&harness.DKGOptions{N: 7, T: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	params := dkgParamsFor(res, 1)
	for _, tc := range []struct {
		qsize int
		ok    bool
	}{
		{0, true}, // the default, t+1
		{3, true},
		{5, true},
		{2, false},
		{6, false},
		{-1, false},
	} {
		params.QSize = tc.qsize
		_, err := dkg.NewNode(params, 1, 1, nullRuntime{}, dkg.Options{})
		if tc.ok && err != nil {
			t.Fatalf("QSize %d refused: %v", tc.qsize, err)
		}
		if !tc.ok && !errors.Is(err, dkg.ErrBadParams) {
			t.Fatalf("QSize %d: got %v, want ErrBadParams", tc.qsize, err)
		}
	}
}

// TestExtractionQSizeExactlyAttainable: with t dealers Byzantine and
// silent and f nodes crashed, n−t−f sharings — the honest live nodes'
// own — are all that will ever complete. The session finishes on them.
func TestExtractionQSizeExactlyAttainable(t *testing.T) {
	silent := func(*simnet.Env) simnet.Handler { return silentHandler{} }
	res, err := harness.RunDKG(harness.DKGOptions{
		N: 10, T: 2, F: 1, Seed: 77, QSize: 7,
		Byzantine:        map[msg.NodeID]func(env *simnet.Env) simnet.Handler{9: silent, 10: silent},
		CrashedFromStart: []msg.NodeID{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.HonestDone(); got != 7 {
		t.Fatalf("%d of 7 honest live nodes completed", got)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Completed[1].Q {
		if d != msg.NodeID(i+1) {
			t.Fatalf("agreed set %v is not the seven honest live dealers", res.Completed[1].Q)
		}
	}
}

// TestOneRowSessionUnchanged pins what a session that sums t+1 dealers
// into one key pair — every key, beacon, renewal and group modification
// session — writes and sends: the state encoding of a completed node
// and the run's message and byte counts, as recorded on the commit
// before batched dealings and extraction existed. A deliberate change
// to the state codec or the wire moves these.
func TestOneRowSessionUnchanged(t *testing.T) {
	const (
		state = "3a4be67d5eba85795508568c90e9f1502032be1f66bdf60c19774369893dd2b1"
		msgs  = 180
		bytes = 25095
	)
	res, err := harness.RunDKG(harness.DKGOptions{N: 4, T: 1, Seed: 11, DedupDealings: true, CompressedWire: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := res.Nodes[1].MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(st)); got != state {
		t.Errorf("completed state hashes to %s, recorded %s", got, state)
	}
	if res.Stats.TotalMsgs != msgs || res.Stats.TotalBytes != bytes {
		t.Errorf("%d messages, %d bytes; recorded %d, %d", res.Stats.TotalMsgs, res.Stats.TotalBytes, msgs, bytes)
	}
}
