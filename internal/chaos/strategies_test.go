package chaos

import (
	"testing"

	"hybriddkg/internal/msg"
)

// cleanSpec derives a scenario from (seed, cell) and strips the random
// faults so a test can install exactly one fault of interest on an
// otherwise calm, within-model network.
func cleanSpec(seed uint64, cell Cell) Spec {
	spec := RandomSpec(seed, cell)
	spec.Churn = nil
	spec.Strategies = nil
	spec.Partition = PartitionSpec{}
	spec.LossBP = 0
	spec.Negative = false
	return spec
}

// TestStrategiesDirected runs each Byzantine strategy in isolation
// against an otherwise healthy cluster. Every strategy stays inside
// the t budget, so the honest majority must still reach agreement and
// complete — the strategies are adversaries the protocol claims to
// tolerate, not bug injections.
func TestStrategiesDirected(t *testing.T) {
	flood := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	cert := Cell{N: 13, T: 2, F: 3, Backend: "modp", Certificates: true}
	cases := []struct {
		name   string
		cell   Cell
		victim int
	}{
		{StratEquivDealer, flood, 3},
		{StratEchoSplice, flood, 4},
		{StratSlowLoris, flood, 5},
		{StratAdaptive, flood, 6},
		{StratFlood, flood, 7},
		{StratEquivDealer, cert, 3},
		{StratWithholdCert, cert, 4},
		{StratLateCert, cert, 5},
		{StratAdaptive, cert, 6},
	}
	for _, tc := range cases {
		tc := tc
		mode := "flood"
		if tc.cell.Certificates {
			mode = "cert"
		}
		t.Run(tc.name+"/"+mode, func(t *testing.T) {
			t.Parallel()
			spec := cleanSpec(11, tc.cell)
			spec.Strategies = []StrategySpec{{Name: tc.name, Node: msg.NodeID(tc.victim)}}
			r := Run(spec)
			if r.Failed() {
				t.Errorf("strategy %s:\n%s", tc.name, r.Report())
			}
			if done := r.HonestDone; done < tc.cell.N-tc.cell.T-tc.cell.F {
				t.Errorf("strategy %s: only %d honest nodes done", tc.name, done)
			}
		})
	}
}

// TestStrategiesStacked composes two strategies (the spec budget
// allows up to min(2, t)) and checks the cluster still completes.
func TestStrategiesStacked(t *testing.T) {
	spec := cleanSpec(17, Cell{N: 13, T: 2, F: 3, Backend: "modp"})
	spec.Strategies = []StrategySpec{
		{Name: StratEquivDealer, Node: 2},
		{Name: StratSlowLoris, Node: 9},
	}
	r := Run(spec)
	if r.Failed() {
		t.Fatalf("stacked strategies:\n%s", r.Report())
	}
}

// TestBadSigReady fields t nodes whose VSS readies carry garbage
// signatures over valid points — beside an honest initial leader, and
// with the leader one of them. The readies count (Fig. 1 gates on
// verify-point), so sharings complete holding forgeries; agreement and
// liveness must hold all the same, without a leader change when the
// leader is honest, which they only do if every R_d set is verified
// before it is proposed or accepted. The run replays hash-identically
// at any verify-pool width.
func TestBadSigReady(t *testing.T) {
	cell := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	for _, forgers := range [][2]msg.NodeID{{5, 8}, {1, 8}} {
		spec := cleanSpec(23, cell)
		spec.Strategies = []StrategySpec{{Name: StratBadSigReady, Node: forgers[0]}, {Name: StratBadSigReady, Node: forgers[1]}}
		var hash string
		for _, workers := range []int{0, 1, 4} {
			spec.VerifyWorkers = workers
			r := Run(spec)
			if r.Failed() {
				t.Fatalf("forgers %v, pool width %d:\n%s", forgers, workers, r.Report())
			}
			if r.HonestDone != cell.N-cell.T {
				t.Errorf("forgers %v, pool width %d: %d of %d honest nodes done", forgers, workers, r.HonestDone, cell.N-cell.T)
			}
			if forgers[0] != 1 && r.LeaderMax != 0 {
				t.Errorf("forgers %v: %d leader changes under an honest leader", forgers, r.LeaderMax)
			}
			if hash == "" {
				hash = r.TraceHash
			} else if r.TraceHash != hash {
				t.Errorf("forgers %v: trace hash moved with the pool width (%d workers)", forgers, workers)
			}
		}
	}
}

// TestBadSigEcho fields t nodes whose DKG echoes and readies carry
// garbage signatures: beside an honest initial leader, with the leader
// one of them, and with the initial leader crashed at the start so that
// a forger leads the next view. Echoes and readies count by sender and
// only the lock checks their signatures, so agreement and liveness hold
// only if every lock drops the forgeries from its M set and waits for
// genuine arrivals. The run replays hash-identically at any verify-pool
// width.
func TestBadSigEcho(t *testing.T) {
	cell := Cell{N: 13, T: 2, F: 3, Backend: "modp"}
	for _, tc := range []struct {
		name    string
		forgers [2]msg.NodeID
		crash   msg.NodeID // crashed at the start, forcing a view change
	}{
		{"honest-leader", [2]msg.NodeID{5, 8}, 0},
		{"forger-leader", [2]msg.NodeID{1, 8}, 0},
		{"view-change", [2]msg.NodeID{2, 8}, 1},
	} {
		spec := cleanSpec(29, cell)
		spec.Strategies = []StrategySpec{{Name: StratBadSigEcho, Node: tc.forgers[0]}, {Name: StratBadSigEcho, Node: tc.forgers[1]}}
		live := cell.N - cell.T
		if tc.crash != 0 {
			spec.Churn = []ChurnEvent{{At: 0, Node: tc.crash, Op: OpCrash}}
			live--
		}
		var hash string
		for _, workers := range []int{0, 1, 4} {
			spec.VerifyWorkers = workers
			r := Run(spec)
			if r.Failed() {
				t.Fatalf("%s, pool width %d:\n%s", tc.name, workers, r.Report())
			}
			if r.HonestDone != live {
				t.Errorf("%s, pool width %d: %d of %d honest live nodes done", tc.name, workers, r.HonestDone, live)
			}
			if changed := r.LeaderMax != 0; changed != (tc.crash != 0) {
				t.Errorf("%s: %d leader changes", tc.name, r.LeaderMax)
			}
			if hash == "" {
				hash = r.TraceHash
			} else if r.TraceHash != hash {
				t.Errorf("%s: trace hash moved with the pool width (%d workers)", tc.name, workers)
			}
		}
	}
}

// TestStrategyValidation rejects malformed strategy specs instead of
// running them.
func TestStrategyValidation(t *testing.T) {
	spec := cleanSpec(1, Cell{N: 13, T: 2, F: 3, Backend: "modp"})
	spec.Strategies = []StrategySpec{{Name: "no-such-strategy", Node: 3}}
	if r := Run(spec); r.Err == nil {
		t.Error("unknown strategy accepted")
	}
	spec.Strategies = []StrategySpec{{Name: StratSlowLoris, Node: 99}}
	if r := Run(spec); r.Err == nil {
		t.Error("out-of-range victim accepted")
	}
}
