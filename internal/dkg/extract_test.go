package dkg_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/simnet"
)

// TestExtraction runs sessions that agree on n−t−f dealers and take
// n−2t−f outputs from every coordinate. All w·e outputs must be key
// pairs in their own right — same commitment on every node, every share
// valid, any t+1 shares interpolating to the committed secret
// (CheckConsistency covers each output) — and no two of them the same.
func TestExtraction(t *testing.T) {
	for _, width := range []int{1, 4} {
		for _, shape := range [][3]int{{4, 1, 0}, {7, 2, 0}, {10, 2, 1}} {
			n, thr, f := shape[0], shape[1], shape[2]
			qsize := n - thr - f
			rows := qsize - thr
			t.Run(fmt.Sprintf("w%d/n%d", width, n), func(t *testing.T) {
				res, err := harness.RunDKG(harness.DKGOptions{
					N: n, T: thr, F: f, Seed: uint64(100*width + n), Width: width, QSize: qsize, Rows: rows,
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
				ev := res.Completed[1]
				if len(ev.Q) != qsize {
					t.Fatalf("agreed on %d dealers, want %d", len(ev.Q), qsize)
				}
				outs := ev.Outputs()
				if len(outs) != width*rows {
					t.Fatalf("%d outputs, want %d", len(outs), width*rows)
				}
				seen := make(map[string]int, len(outs))
				for i, out := range outs {
					pk := string(out.V.PublicKey().Bytes())
					if j, dup := seen[pk]; dup {
						t.Fatalf("outputs %d and %d share a public nonce", j, i)
					}
					seen[pk] = i
				}
			})
		}
	}
}

// TestExtractionRowBound: one row more than QSize−t would make the
// outputs linearly dependent given t corrupt dealers' inputs, so a node
// refuses to be built that way; so does one asked to extract through a
// renewal-style combiner, whose output is one Lagrange combination.
func TestExtractionRowBound(t *testing.T) {
	res, err := harness.SetupDKG(&harness.DKGOptions{N: 7, T: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	params := dkgParamsFor(res, 1)
	build := func(qsize int, opts dkg.Options) error {
		params.QSize = qsize
		_, err := dkg.NewNode(params, 1, 1, nullRuntime{}, opts)
		return err
	}
	if err := build(5, dkg.Options{Rows: 3}); err != nil {
		t.Fatalf("QSize 5, t 2, 3 rows refused: %v", err)
	}
	for _, tc := range []struct {
		qsize int
		opts  dkg.Options
	}{
		{5, dkg.Options{Rows: 4}},
		{0, dkg.Options{Rows: 2}}, // the default Q of t+1 has one independent row
		{5, dkg.Options{Rows: -1}},
		{5, dkg.Options{Rows: 2, Combine: dkg.SumCombiner(group.Test256())}},
	} {
		if err := build(tc.qsize, tc.opts); !errors.Is(err, dkg.ErrBadParams) {
			t.Fatalf("QSize %d rows %d combiner %v: got %v, want ErrBadParams", tc.qsize, tc.opts.Rows, tc.opts.Combine != nil, err)
		}
	}
}

// TestExtractionQSizeExactlyAttainable: with t dealers Byzantine and
// silent and f nodes crashed, n−t−f sharings — the honest live nodes'
// own — are all that will ever complete. The session finishes on them.
func TestExtractionQSizeExactlyAttainable(t *testing.T) {
	silent := func(*simnet.Env) simnet.Handler { return silentHandler{} }
	res, err := harness.RunDKG(harness.DKGOptions{
		N: 10, T: 2, F: 1, Seed: 77, Width: 4, QSize: 7, Rows: 5,
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
// into one output per coordinate — every key, beacon, renewal and group
// modification session — writes and sends: the state encoding of a
// completed node and the run's message and byte counts, as recorded on
// the commit before extraction existed. A deliberate change to the state
// codec or the wire moves these; extraction must not.
func TestOneRowSessionUnchanged(t *testing.T) {
	for _, tc := range []struct {
		width int
		state string
		msgs  int
		bytes int64
	}{
		{1, "3a4be67d5eba85795508568c90e9f1502032be1f66bdf60c19774369893dd2b1", 180, 25095},
		{4, "820851f81064cb5499df8245491eef19b9b5ffa135a9c7a2186be61313321fe5", 180, 42174},
	} {
		res, err := harness.RunDKG(harness.DKGOptions{N: 4, T: 1, Seed: 11, Width: tc.width, DedupDealings: true, CompressedWire: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := res.Nodes[1].MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(st)); got != tc.state {
			t.Errorf("width %d: completed state hashes to %s, recorded %s", tc.width, got, tc.state)
		}
		if res.Stats.TotalMsgs != tc.msgs || res.Stats.TotalBytes != tc.bytes {
			t.Errorf("width %d: %d messages, %d bytes; recorded %d, %d", tc.width, res.Stats.TotalMsgs, res.Stats.TotalBytes, tc.msgs, tc.bytes)
		}
	}
}
