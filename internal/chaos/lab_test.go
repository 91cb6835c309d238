package chaos

import (
	"strings"
	"testing"
)

// TestSweepSmoke is the bounded soak CI runs on every change: random
// scenarios over the tight n=13 cell in both protocol modes. Every
// within-model scenario must satisfy agreement + liveness; every
// beyond-model scenario must stay safe.
func TestSweepSmoke(t *testing.T) {
	cells, err := DefaultCells([]int{13}, []string{"modp"}, []string{"flood", "cert"})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 0, 10)
	for s := uint64(1); s <= 10; s++ {
		seeds = append(seeds, s)
	}
	sum := Sweep(SweepOptions{Seeds: seeds, Cells: cells, Progress: func(r *Result) {
		if r.Failed() {
			t.Error(r.Report())
		} else if testing.Verbose() {
			t.Logf("pass seed=%d %s hash=%.12s events=%d done=%d",
				r.Spec.Seed, r.Spec.Cell, r.TraceHash, r.TraceEvents, r.HonestDone)
		}
	}})
	if sum.Runs != len(seeds)*len(cells) {
		t.Errorf("ran %d scenarios, want %d", sum.Runs, len(seeds)*len(cells))
	}
}

// TestSweepLargeCells covers the subquadratic regimes: n=64 under the
// Any-Trust dealer restriction in both flood and certificate modes,
// plus the P-256 elliptic backend.
func TestSweepLargeCells(t *testing.T) {
	if testing.Short() {
		t.Skip("large cells skipped in -short")
	}
	for _, cell := range []Cell{
		{N: 64, T: 3, F: 2, Backend: "modp"},
		{N: 64, T: 3, F: 2, Backend: "modp", Certificates: true},
		{N: 13, T: 2, F: 3, Backend: "p256"},
		{N: 13, T: 2, F: 3, Backend: "p256", Certificates: true},
	} {
		r := Replay(3, cell, "", 0)
		if r.Failed() {
			t.Errorf("cell %s:\n%s", cell, r.Report())
		}
	}
}

// TestRollingRestartScenarios runs the first few seeds whose scenario
// draws a kill/restore schedule: the victim is SIGKILLed, its process
// state discarded, and the node rebuilt from its durable store (WAL +
// snapshots) mid-protocol. The rebuilt node must rejoin and the
// cluster must still complete.
func TestRollingRestartScenarios(t *testing.T) {
	cell := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	found := 0
	for seed := uint64(1); seed <= 120 && found < 3; seed++ {
		spec := RandomSpec(seed, cell)
		if !churnNeedsJournal(spec.Churn) {
			continue
		}
		found++
		if r := Run(spec); r.Failed() {
			t.Errorf("rolling seed %d:\n%s", seed, r.Report())
		}
	}
	if found < 3 {
		t.Fatalf("only %d rolling-restart scenarios in 120 seeds; derivation drifted", found)
	}
}

// TestNegativeScenario locates a beyond-resilience draw (t+f+1 nodes
// crashed forever) and checks the inverted invariant: the live honest
// population is one short of the ready quorum, so nobody may complete.
func TestNegativeScenario(t *testing.T) {
	cell := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	for seed := uint64(1); seed <= 60; seed++ {
		spec := RandomSpec(seed, cell)
		if !spec.Negative {
			continue
		}
		r := Run(spec)
		if r.Failed() {
			t.Fatalf("negative seed %d:\n%s", seed, r.Report())
		}
		if r.HonestDone != 0 {
			t.Fatalf("negative seed %d: %d nodes completed beyond resilience", seed, r.HonestDone)
		}
		return
	}
	t.Fatal("no negative scenario in 60 seeds; derivation drifted")
}

// TestE23LabCatchesInjectedLivenessBug is the lab's acceptance bar
// (DESIGN.md E23): with the crash-recovery retransmission path severed
// (every help request dropped — the PR-6 retry-backlog bug class), a
// bounded seed sweep must flag a liveness violation, and the failing
// seed must replay with an identical trace hash.
func TestE23LabCatchesInjectedLivenessBug(t *testing.T) {
	cell := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	var caught *Result
	for seed := uint64(1); seed <= 200; seed++ {
		r := Replay(seed, cell, InjectDropHelp, 0)
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		if r.Failed() {
			caught = r
			break
		}
	}
	if caught == nil {
		t.Fatal("injected drop-help bug not caught within 200 seeds")
	}
	if caught.Violation != InvLiveness {
		t.Fatalf("caught with violation %q, want %q:\n%s", caught.Violation, InvLiveness, caught.Report())
	}
	t.Logf("caught at seed=%d: %s", caught.Spec.Seed, caught.Spec.String())

	// The failing seed replays deterministically: same violation, same
	// trace hash, twice.
	r1 := Replay(caught.Spec.Seed, cell, InjectDropHelp, 0)
	r2 := Replay(caught.Spec.Seed, cell, InjectDropHelp, 0)
	if r1.Violation != caught.Violation || r2.Violation != caught.Violation {
		t.Fatalf("replay violation drifted: %q / %q, want %q", r1.Violation, r2.Violation, caught.Violation)
	}
	if r1.TraceHash != caught.TraceHash || r2.TraceHash != caught.TraceHash {
		t.Fatalf("replay hash drifted: %s / %s, want %s", r1.TraceHash, r2.TraceHash, caught.TraceHash)
	}
}

// TestDropCountersSurfaced checks satellite instrumentation: scenarios
// with partitions or loss attribute their drops to the dedicated
// counters rather than the generic filter bucket.
func TestDropCountersSurfaced(t *testing.T) {
	cell := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	var sawPartition, sawLoss bool
	for seed := uint64(1); seed <= 120 && !(sawPartition && sawLoss); seed++ {
		spec := RandomSpec(seed, cell)
		switch {
		case spec.Partition.Kind == "gray" && !sawPartition:
			r := Run(spec)
			if r.Failed() {
				t.Errorf("gray seed %d:\n%s", seed, r.Report())
			} else if r.Stats.DroppedPartition == 0 {
				t.Errorf("gray seed %d: no partition drops counted (spec %s)", seed, spec.String())
			}
			sawPartition = true
		case spec.LossBP > 0 && !sawLoss:
			r := Run(spec)
			if r.Failed() {
				t.Errorf("loss seed %d:\n%s", seed, r.Report())
			} else if r.Stats.DroppedLoss == 0 {
				t.Errorf("loss seed %d: no loss drops counted (spec %s)", seed, spec.String())
			}
			sawLoss = true
		}
	}
	if !sawPartition || !sawLoss {
		t.Fatalf("sweep never drew gray=%v loss=%v scenarios; derivation drifted", sawPartition, sawLoss)
	}
}

// TestWideCellLeavesRecordedSeedsAlone: the width-1 cells every
// recorded seed ran in replay to the hashes recorded before sessions had
// a width, and the wide and extraction cells and the bugs only they
// showed are gone: asking for them is the lab's "unknown" error.
func TestWideCellLeavesRecordedSeedsAlone(t *testing.T) {
	for _, rec := range []struct {
		seed uint64
		cell Cell
		hash string
	}{
		{1, Cell{N: 13, T: 2, F: 3, Backend: "modp"}, "cb72b0b1200b"},
		{1, Cell{N: 13, T: 2, F: 3, Backend: "modp", Certificates: true}, "76b5e364fc3c"},
		{2, Cell{N: 13, T: 2, F: 3, Backend: "modp"}, "524c6b7c608d"},
		{1, Cell{N: 13, T: 2, F: 3, Backend: "p256"}, "2c0005442728"},
	} {
		if r := Replay(rec.seed, rec.cell, "", 0); !strings.HasPrefix(r.TraceHash, rec.hash) {
			t.Fatalf("seed %d cell %s: trace hash %.12s, recorded %s", rec.seed, rec.cell, r.TraceHash, rec.hash)
		}
	}
	for _, mode := range []string{"flood-w4", "cert-w4", "flood-w4-x", "cert-w4-x"} {
		if _, err := DefaultCells([]int{13}, []string{"modp"}, []string{mode}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("mode %s: got %v, want an unknown-mode error", mode, err)
		}
	}
	cell := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	for _, bug := range []string{"verify-first-coordinate-only", "extract-share-row-zero"} {
		if r := Replay(1, cell, bug, 0); r.Err == nil || !strings.Contains(r.Err.Error(), "unknown injected bug") {
			t.Errorf("bug %s: got %v, want an unknown-bug error", bug, r.Err)
		}
	}
}
