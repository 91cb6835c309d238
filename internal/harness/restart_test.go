package harness

import (
	"testing"

	"hybriddkg/internal/msg"
)

// checkRestart asserts the cluster completed consistently and the
// victim's post-restart incarnation participated to completion.
func checkRestart(t *testing.T, res *RestartResult) {
	t.Helper()
	if res.HonestDone() != res.Opts.N-len(res.Opts.Byzantine)-len(res.Opts.CrashedFromStart) {
		t.Fatalf("only %d nodes completed", res.HonestDone())
	}
	if res.RestoredNode == nil || !res.RestoredNode.Done() {
		t.Fatal("restored victim did not complete")
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartMidDealingWALOnly: SIGKILL during the dealing phase with
// no snapshots — the victim is rebuilt by replaying its whole
// delivered-frame WAL, then completes through the help protocol.
func TestRestartMidDealingWALOnly(t *testing.T) {
	res, err := RunRestartDKG(RestartOptions{
		DKG:       DKGOptions{N: 4, T: 1, Seed: 101},
		Victim:    2,
		CrashAt:   120,
		RestartAt: 700,
		StateDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRestart(t, res)
	if res.UsedSnapshot {
		t.Fatal("restore used a snapshot that should not exist")
	}
	if res.ReplayedFrames == 0 || uint64(res.ReplayedFrames) != res.JournaledFrames {
		t.Fatalf("replayed %d of %d journaled frames", res.ReplayedFrames, res.JournaledFrames)
	}
}

// TestRestartMidDealingFreshSnapshot: with a tight snapshot cadence
// the restore starts from a recent snapshot and replays only the tail.
func TestRestartMidDealingFreshSnapshot(t *testing.T) {
	res, err := RunRestartDKG(RestartOptions{
		DKG:           DKGOptions{N: 4, T: 1, Seed: 101},
		Victim:        2,
		CrashAt:       120,
		RestartAt:     700,
		SnapshotEvery: 4,
		StateDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRestart(t, res)
	if !res.UsedSnapshot {
		t.Fatal("fresh-snapshot scenario restored without a snapshot")
	}
	if res.SnapshotSeq == 0 {
		t.Fatal("snapshot covered no frames")
	}
	if uint64(res.ReplayedFrames) != res.JournaledFrames-res.SnapshotSeq {
		t.Fatalf("replayed %d frames, want tail %d after snapshot seq %d",
			res.ReplayedFrames, res.JournaledFrames-res.SnapshotSeq, res.SnapshotSeq)
	}
}

// TestRestartStaleSnapshot: snapshots freeze after the first one, so
// the restore starts from a stale snapshot and replays a long WAL
// tail — it must end in exactly the same place.
func TestRestartStaleSnapshot(t *testing.T) {
	res, err := RunRestartDKG(RestartOptions{
		DKG:                  DKGOptions{N: 4, T: 1, Seed: 101},
		Victim:               2,
		CrashAt:              120,
		RestartAt:            700,
		SnapshotEvery:        4,
		FreezeSnapshotsAfter: 1,
		StateDir:             t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRestart(t, res)
	if !res.UsedSnapshot || res.SnapshotSeq != 4 {
		t.Fatalf("stale snapshot: used=%v seq=%d, want frozen first snapshot at 4",
			res.UsedSnapshot, res.SnapshotSeq)
	}
	if uint64(res.ReplayedFrames) != res.JournaledFrames-4 {
		t.Fatalf("replayed %d frames, want %d", res.ReplayedFrames, res.JournaledFrames-4)
	}
}

// TestRestartMidLeaderChange: the initial leader is down from the
// start, forcing the pessimistic phase; the victim is SIGKILLed while
// the leader change is brewing and restarted after the new view is
// installed. It must catch up (leadership proof via help/retransmit)
// and complete.
func TestRestartMidLeaderChange(t *testing.T) {
	res, err := RunRestartDKG(RestartOptions{
		DKG: DKGOptions{
			N: 4, T: 1, Seed: 77,
			CrashedFromStart: []msg.NodeID{1}, // initial leader, never comes back
		},
		Victim:        3,
		CrashAt:       5100, // timers fire around TimeoutBase=5000
		RestartAt:     6200,
		SnapshotEvery: 8,
		StateDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HonestDone() != 3 {
		t.Fatalf("only %d of 3 live nodes completed", res.HonestDone())
	}
	if !res.RestoredNode.Done() {
		t.Fatal("restored victim did not complete")
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.RestoredNode.Result().FinalView < 2 {
		t.Fatalf("final view %d: leader change did not happen", res.RestoredNode.Result().FinalView)
	}
}

// TestRestartMidRenewal: SIGKILL during a §5.2 share renewal. The
// renewal must still complete with the public key unchanged and the
// renewed shares interpolating to the original secret.
func TestRestartMidRenewal(t *testing.T) {
	res, prevVec, err := RunRestartRenewal(RestartOptions{
		DKG:           DKGOptions{N: 4, T: 1, Seed: 55},
		Victim:        2,
		CrashAt:       120,
		RestartAt:     700,
		SnapshotEvery: 4,
		StateDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HonestDone() != 4 {
		t.Fatalf("only %d nodes completed the renewal", res.HonestDone())
	}
	if !res.RestoredNode.Done() {
		t.Fatal("restored victim did not complete the renewal")
	}
	// Public key must be preserved by the renewal combination.
	for id, node := range res.Nodes {
		if !node.Done() {
			continue
		}
		if !res.Completed[id].PublicKey.Equal(prevVec.PublicKey()) {
			t.Fatalf("node %d: renewal changed the public key", id)
		}
	}
	if err := res.RenewedSecretMatches(prevVec); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWideSession: the kill-and-restore scenarios for a session
// that sums t+1 dealers and for one that agrees on n−t−f (the name is
// from when sessions could share several secrets per dealer). The
// victim comes back from its WAL alone, and from a snapshot plus the
// WAL tail, and the cluster agrees on the key.
func TestRestartWideSession(t *testing.T) {
	for _, shape := range [][2]int{{0, 2}, {3, 3}} { // QSize, dealers agreed on
		qsize, want := shape[0], shape[1]
		for _, snapshotEvery := range []int{0, 4} {
			res, err := RunRestartDKG(RestartOptions{
				DKG: DKGOptions{N: 4, T: 1, Seed: 101, QSize: qsize,
					DedupDealings: true, CompressedWire: true},
				Victim:        2,
				CrashAt:       120,
				RestartAt:     700,
				SnapshotEvery: snapshotEvery,
				StateDir:      t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			checkRestart(t, res)
			if res.UsedSnapshot != (snapshotEvery > 0) {
				t.Fatalf("snapshot every %d: restore used a snapshot: %v", snapshotEvery, res.UsedSnapshot)
			}
			if got := len(res.RestoredNode.Result().Q); got != want {
				t.Fatalf("restored victim agreed on %d dealers, want %d", got, want)
			}
		}
	}
}
