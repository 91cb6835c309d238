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

// wideCell is the width-4 cell: every dealer shares four secrets under
// one broadcast, and half the scenarios field a coordinate splicer.
var wideCell = Cell{N: 13, T: 2, F: 3, Backend: "modp", Width: 4}

// TestWideCellLeavesRecordedSeedsAlone: the wide cell is a new cell.
// Its scenarios extend the width-1 cell's draws and nothing in a
// width-1 cell's spec, rendering or fingerprint knows that widths exist:
// the hashes below were recorded before sessions had a width.
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
	narrow := wideCell
	narrow.Width = 0
	one := narrow
	one.Width = 1
	splicers := 0
	for seed := uint64(1); seed <= 60; seed++ {
		a, b := RandomSpec(seed, narrow), RandomSpec(seed, one)
		if a.String() != b.String() {
			t.Fatalf("seed %d: width 0 and width 1 derive different scenarios", seed)
		}
		for _, st := range a.Strategies {
			if st.Name == StratSpliceCoordinate {
				t.Fatalf("seed %d: a width-1 cell drew %s", seed, st.Name)
			}
		}
		for _, st := range RandomSpec(seed, wideCell).Strategies {
			if st.Name == StratSpliceCoordinate {
				splicers++
			}
		}
	}
	if splicers < 10 {
		t.Fatalf("only %d of 60 wide scenarios field a coordinate splicer", splicers)
	}
}

// TestSweepWideCell: scenarios at width 4, splicers included, hold
// agreement on all four key pairs and liveness, over the flood and over
// certificates, and replay hash-identically.
func TestSweepWideCell(t *testing.T) {
	cert := wideCell
	cert.Certificates = true
	for _, cell := range []Cell{wideCell, cert} {
		for seed := uint64(1); seed <= 8; seed++ {
			r := Replay(seed, cell, "", 0)
			if r.Failed() {
				t.Fatalf("%s", r.Report())
			}
			if again := Replay(seed, cell, "", 0); again.TraceHash != r.TraceHash {
				t.Fatalf("seed %d cell %s: replay hash moved", seed, cell)
			}
		}
	}
}

// TestLabCatchesFirstCoordinateOnly: with every honest node verifying
// points on coordinate 0 alone, a bounded sweep of the wide cell must
// flag an agreement violation — some node holds a share that its
// commitment rejects — and the failing seed must replay to the same
// verdict and trace hash. The same seed without the bug passes.
func TestLabCatchesFirstCoordinateOnly(t *testing.T) {
	var caught *Result
	for seed := uint64(1); seed <= 200; seed++ {
		r := Replay(seed, wideCell, InjectVerifyFirstCoordinateOnly, 0)
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		if r.Failed() {
			caught = r
			break
		}
	}
	if caught == nil {
		t.Fatal("injected verify-first-coordinate-only bug not caught within 200 seeds")
	}
	if caught.Violation != InvAgreement {
		t.Fatalf("caught with violation %q, want %q:\n%s", caught.Violation, InvAgreement, caught.Report())
	}
	t.Logf("caught at seed=%d: %s", caught.Spec.Seed, caught.Spec.String())
	again := Replay(caught.Spec.Seed, wideCell, InjectVerifyFirstCoordinateOnly, 0)
	if again.Violation != caught.Violation || again.TraceHash != caught.TraceHash {
		t.Fatalf("replay drifted: %q %s, want %q %s", again.Violation, again.TraceHash, caught.Violation, caught.TraceHash)
	}
	if clean := Replay(caught.Spec.Seed, wideCell, "", 0); clean.Failed() {
		t.Fatalf("the catching seed fails without the bug:\n%s", clean.Report())
	}
}

// extractCell is the wide cell with extraction on: the agreed set holds
// n−t−f = 8 dealers and each of the four coordinates yields
// n−2t−f = 6 outputs.
var extractCell = Cell{N: 13, T: 2, F: 3, Backend: "modp", Width: 4, Extract: true}

// TestSweepExtractionCell: scenarios that must collect n−t−f dealers
// under the lab's faults hold liveness and agreement on all 24 outputs,
// over the flood and over certificates, and replay hash-identically. The
// cell is named apart from the wide cell it extends, so neither's seeds
// disturb the other's.
func TestSweepExtractionCell(t *testing.T) {
	if extractCell.String() == wideCell.String() || extractCell.fingerprint() == wideCell.fingerprint() {
		t.Fatal("the extraction cell is not a cell of its own")
	}
	cert := extractCell
	cert.Certificates = true
	for _, cell := range []Cell{extractCell, cert} {
		for seed := uint64(1); seed <= 8; seed++ {
			r := Replay(seed, cell, "", 0)
			if r.Failed() {
				t.Fatalf("%s", r.Report())
			}
			if again := Replay(seed, cell, "", 0); again.TraceHash != r.TraceHash {
				t.Fatalf("seed %d cell %s: replay hash moved", seed, cell)
			}
		}
	}
}

// TestLabCatchesExtractShareRowZero: with every honest node combining
// shares by row 0 and commitments by the row at hand, a bounded sweep of
// the extraction cell must flag an agreement violation — an output past
// the first row whose share its commitment rejects — reproducibly, and
// the same seed must pass without the bug.
func TestLabCatchesExtractShareRowZero(t *testing.T) {
	var caught *Result
	for seed := uint64(1); seed <= 20; seed++ {
		r := Replay(seed, extractCell, InjectExtractShareRowZero, 0)
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seed, r.Err)
		}
		if r.Failed() {
			caught = r
			break
		}
	}
	if caught == nil {
		t.Fatal("injected extract-share-row-zero bug not caught within 20 seeds")
	}
	if caught.Violation != InvAgreement {
		t.Fatalf("caught with violation %q, want %q:\n%s", caught.Violation, InvAgreement, caught.Report())
	}
	again := Replay(caught.Spec.Seed, extractCell, InjectExtractShareRowZero, 0)
	if again.Violation != caught.Violation || again.TraceHash != caught.TraceHash {
		t.Fatalf("replay drifted: %q %s, want %q %s", again.Violation, again.TraceHash, caught.Violation, caught.TraceHash)
	}
	if clean := Replay(caught.Spec.Seed, extractCell, "", 0); clean.Failed() {
		t.Fatalf("the catching seed fails without the bug:\n%s", clean.Report())
	}
	// A cell that sums t+1 dealers has no later rows for the bug to touch.
	if r := Replay(caught.Spec.Seed, wideCell, InjectExtractShareRowZero, 0); r.Failed() {
		t.Fatalf("the bug shows in a cell without extraction:\n%s", r.Report())
	}
}
