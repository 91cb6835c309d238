// Package chaos is the deterministic adversarial scenario lab: a
// seed-replayable scenario engine layered on simnet's virtual clock.
// Every run is a pure function of (seed, cell) — the scenario spec
// (WAN fault models, churn schedules, Byzantine strategies) is derived
// from the seed, all scheduling randomness flows from the same seed,
// and the simulator's event-trace hash is the run's replay
// fingerprint: two runs of the same spec are event-for-event identical
// iff their hashes match. The lab sweeps random seeds across cluster
// sizes, group backends and protocol modes, checks the paper's §4
// guarantees as executable invariants, and prints a replayable spec on
// every failure.
package chaos

import (
	"fmt"
	"strings"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
)

// Cell fixes the non-random coordinates of a sweep: cluster shape,
// group backend and protocol mode. The scenario itself (faults,
// strategies, timing) is drawn from the seed within the cell.
type Cell struct {
	N, T, F int
	// Backend selects the group arithmetic: "modp" (the 256-bit
	// Schnorr-style test group) or "p256" (the elliptic backend).
	Backend string
	// Certificates switches the echo/ready phases to PR-9's
	// committee-sampled quorum certificates (false = classic flood).
	Certificates bool
}

func (c Cell) String() string {
	return fmt.Sprintf("n=%d t=%d f=%d %s/%s", c.N, c.T, c.F, c.Backend, cellMode(c))
}

// fingerprint folds the cell into the seed so different cells explore
// different scenario streams for the same seed.
func (c Cell) fingerprint() uint64 {
	fp := uint64(c.N)<<32 ^ uint64(c.T)<<16 ^ uint64(c.F)<<8
	for _, b := range []byte(c.Backend) {
		fp = fp*131 + uint64(b)
	}
	if c.Certificates {
		fp ^= 0xce27
	}
	return fp
}

// LatencySpec is the per-message delay model. All models stay inside
// the paper's weak synchrony: delays are bounded, never infinite.
type LatencySpec struct {
	// Model is "uniform", "lognormal" (heavy-tailed WAN), or "bimodal"
	// (two regions, cheap intra-region links, expensive cross-region).
	Model string
	// Base scales the jitter (virtual time units).
	Base int64
	// Regions and CrossPenalty configure the bimodal model.
	Regions      int
	CrossPenalty int64
}

// PartitionSpec schedules one network partition.
type PartitionSpec struct {
	// Kind is "" (none), "split" (symmetric: both directions across the
	// cut are stalled until Heal — a pure delay, inside the model),
	// "asym" (only A→B traffic is stalled), or "gray" (flaky cut:
	// cross-cut messages are probabilistically dropped — outside the
	// hybrid model, liveness is not asserted).
	Kind string
	// From/Heal bound the partition in virtual time.
	From, Heal int64
	// GroupA: nodes 1..GroupA are side A, the rest side B.
	GroupA int
	// GrayBP is the cross-cut drop probability in basis points
	// (gray kind only).
	GrayBP int
}

// ChurnOp enumerates churn schedule operations.
type ChurnOp string

// Churn operations. Crash/Recover use the simulator's crash-recovery
// model (state survives, in-flight messages lost). Kill/Restore model
// a SIGKILLed OS process: the in-memory node is discarded and rebuilt
// from its durable store (WAL + snapshots) through the harness journal.
const (
	OpCrash   ChurnOp = "crash"
	OpRecover ChurnOp = "recover"
	OpKill    ChurnOp = "kill"
	OpRestore ChurnOp = "restore"
)

// ChurnEvent is one scheduled churn operation.
type ChurnEvent struct {
	At   int64
	Node msg.NodeID
	Op   ChurnOp
}

// StrategySpec names one Byzantine strategy and its victim (the node
// the adversary controls). Strategies compose: each occupies one slot
// of the Byzantine budget t.
type StrategySpec struct {
	Name string
	Node msg.NodeID
}

// Spec is a complete scenario: everything Run needs to reproduce a run
// event-for-event. RandomSpec derives one deterministically from
// (seed, cell); hand-written specs are equally valid.
type Spec struct {
	Seed uint64
	Cell Cell

	// Protocol-mode knobs drawn per scenario.
	HashedEcho     bool
	DedupDealings  bool
	CompressedWire bool
	Coalesce       bool
	VerifyWorkers  int

	// Dealers restricts dealing to nodes 1..Dealers (0 = all deal) —
	// the Any-Trust regime that keeps large-n cells tractable.
	Dealers int

	Latency LatencySpec
	// LossBP is independent per-link loss in basis points. Non-zero
	// loss exceeds the hybrid model (crash-only loss), so liveness is
	// not asserted.
	LossBP     int
	Partition  PartitionSpec
	Churn      []ChurnEvent
	Strategies []StrategySpec

	// Inject names a deliberately-injected implementation bug (see
	// inject.go); the lab exists to catch these.
	Inject string

	// Negative marks a beyond-resilience scenario: t+f+1 nodes are
	// crashed forever, and the invariant flips — nobody may complete
	// (the ready quorum n−t−f must be unreachable).
	Negative bool

	// MaxEvents bounds each simulation leg.
	MaxEvents int
}

// LivenessAsserted reports whether the scenario stays within the
// hybrid model's guarantees, i.e. whether the paper's liveness claim
// (§4.4: all honest live nodes complete under ≤t Byzantine and ≤f
// crash-recovery faults) must hold for the run. Injected bugs (Inject)
// do NOT weaken the assertion — they simulate broken implementation
// code under a network that still honours the model, and the liveness
// invariant is precisely how the lab catches them.
func (s *Spec) LivenessAsserted() bool {
	return !s.Negative && s.LossBP == 0 && s.Partition.Kind != "gray"
}

// String renders the spec compactly for failure reports.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d cell={%s}", s.Seed, s.Cell)
	if s.Negative {
		fmt.Fprintf(&b, " NEGATIVE(crash %d forever)", s.Cell.T+s.Cell.F+1)
	}
	// VerifyWorkers is deliberately absent: it is an execution knob
	// that must not move the replay fingerprint (the determinism suite
	// asserts identical trace hashes with the pool on and off).
	fmt.Fprintf(&b, " hashed=%v dedup=%v compressed=%v coalesce=%v",
		s.HashedEcho, s.DedupDealings, s.CompressedWire, s.Coalesce)
	if s.Dealers > 0 {
		fmt.Fprintf(&b, " dealers=%d", s.Dealers)
	}
	fmt.Fprintf(&b, " latency=%s/%d", s.Latency.Model, s.Latency.Base)
	if s.Latency.Model == "bimodal" {
		fmt.Fprintf(&b, "(regions=%d cross=%d)", s.Latency.Regions, s.Latency.CrossPenalty)
	}
	if s.LossBP > 0 {
		fmt.Fprintf(&b, " loss=%dbp", s.LossBP)
	}
	if p := s.Partition; p.Kind != "" {
		fmt.Fprintf(&b, " partition=%s[1..%d|%d..%d]@%d..%d", p.Kind, p.GroupA, p.GroupA+1, s.Cell.N, p.From, p.Heal)
		if p.Kind == "gray" {
			fmt.Fprintf(&b, "(%dbp)", p.GrayBP)
		}
	}
	for _, ev := range s.Churn {
		fmt.Fprintf(&b, " %s(%d)@%d", ev.Op, ev.Node, ev.At)
	}
	for _, st := range s.Strategies {
		fmt.Fprintf(&b, " byz:%s(%d)", st.Name, st.Node)
	}
	if s.Inject != "" {
		fmt.Fprintf(&b, " inject=%s", s.Inject)
	}
	fmt.Fprintf(&b, " liveness=%v", s.LivenessAsserted())
	return b.String()
}

// RandomSpec draws a scenario deterministically from (seed, cell):
// the same pair always yields the identical spec, so a failing seed
// printed by the sweep fully identifies its scenario. The draw keeps
// within-model scenarios in the majority (those assert liveness) and
// respects the fault budgets: at most t Byzantine strategy victims, at
// most f simultaneously crashed nodes, and — when an equivocating
// dealer is in play — at least t+1 honest dealers so completion stays
// possible.
func RandomSpec(seed uint64, cell Cell) Spec {
	rng := randutil.NewReader(seed ^ cell.fingerprint() ^ 0xc4a05)
	spec := Spec{
		Seed:      seed,
		Cell:      cell,
		MaxEvents: 250_000 + cell.N*cell.N*40,
	}
	spec.HashedEcho = cell.N >= 64 || rng.IntN(2) == 0
	spec.DedupDealings = spec.HashedEcho && rng.IntN(3) == 0
	spec.CompressedWire = rng.IntN(2) == 0
	spec.Coalesce = rng.IntN(2) == 0
	if cell.N >= 64 {
		// Any-Trust regime: restrict the dealer set so large cells stay
		// tractable (quorums still span all n nodes).
		spec.Dealers = cell.T + 2 + rng.IntN(2)
	}

	switch rng.IntN(10) {
	case 0, 1, 2, 3:
		spec.Latency = LatencySpec{Model: "uniform", Base: 100 + rng.Int64N(300)}
	case 4, 5, 6:
		spec.Latency = LatencySpec{Model: "lognormal", Base: 80 + rng.Int64N(200)}
	default:
		spec.Latency = LatencySpec{
			Model: "bimodal", Base: 60 + rng.Int64N(120),
			Regions: 2 + rng.IntN(2), CrossPenalty: 200 + rng.Int64N(600),
		}
	}

	// ~1 in 12 scenarios are the beyond-resilience negative check:
	// crash t+f+1 nodes forever, assert nobody completes.
	if rng.IntN(12) == 0 {
		spec.Negative = true
		for i := 0; i < cell.T+cell.F+1; i++ {
			spec.Churn = append(spec.Churn, ChurnEvent{At: 0, Node: msg.NodeID(i + 1), Op: OpCrash})
		}
		// A bounded budget suffices to show no progress; leader-change
		// timers would otherwise spin the full budget down.
		spec.MaxEvents = 150_000
		return spec
	}

	// victims tracks nodes already claimed by a fault so budgets stay
	// disjoint (a strategy victim must not also be churned).
	victims := map[msg.NodeID]bool{}

	// WAN weather: partitions ~35%, else per-link loss ~15%.
	switch rng.IntN(20) {
	case 0, 1, 2, 3:
		spec.Partition = randPartition(rng, cell, "split")
	case 4, 5:
		spec.Partition = randPartition(rng, cell, "asym")
	case 6:
		spec.Partition = randPartition(rng, cell, "gray")
		spec.Partition.GrayBP = 2000 + rng.IntN(6000)
	case 7, 8, 9:
		spec.LossBP = 50 + rng.IntN(250)
	}

	// Churn: ~40% of scenarios carry a crash/recover storm, a rolling
	// kill/restore through the durable-store path, or both.
	if rng.IntN(10) < 4 {
		if cell.N <= 32 && rng.IntN(5) == 0 {
			// Rolling restart: one victim SIGKILLed and rebuilt from its
			// WAL/snapshot store (bounded to small cells — journaling
			// every delivered frame at n≥64 would dominate the run).
			v := pickVictim(rng, cell.N, victims)
			killAt := 400 + rng.Int64N(2500)
			spec.Churn = append(spec.Churn,
				ChurnEvent{At: killAt, Node: v, Op: OpKill},
				ChurnEvent{At: killAt + 600 + rng.Int64N(3000), Node: v, Op: OpRestore},
			)
		} else {
			// Crash storm: k < f victims, each down for a bounded window
			// — one crash slot is kept in reserve for the adaptive
			// strategy so the two never overdraw the f budget together.
			k := 1 + rng.IntN(max(1, cell.F-1))
			for i := 0; i < k; i++ {
				v := pickVictim(rng, cell.N, victims)
				crashAt := rng.Int64N(3000)
				spec.Churn = append(spec.Churn,
					ChurnEvent{At: crashAt, Node: v, Op: OpCrash},
					ChurnEvent{At: crashAt + 500 + rng.Int64N(3500), Node: v, Op: OpRecover},
				)
			}
		}
	}

	// Byzantine strategies: up to min(2, t) stacked, distinct victims.
	catalog := []string{
		StratEquivDealer, StratEchoSplice, StratSlowLoris,
		StratWithholdCert, StratLateCert, StratAdaptive, StratFlood,
	}
	nStrats := rng.IntN(min(2, cell.T) + 1)
	used := map[string]bool{}
	for i := 0; i < nStrats; i++ {
		name := catalog[rng.IntN(len(catalog))]
		if used[name] {
			continue
		}
		if (name == StratWithholdCert || name == StratLateCert) && !cell.Certificates {
			continue // relay strategies only exist in certificate mode
		}
		used[name] = true
		v := pickStrategyVictim(rng, &spec, name, victims)
		if v == 0 {
			continue
		}
		spec.Strategies = append(spec.Strategies, StrategySpec{Name: name, Node: v})
	}
	return spec
}

func randPartition(rng *randutil.Reader, cell Cell, kind string) PartitionSpec {
	from := rng.Int64N(2000)
	return PartitionSpec{
		Kind:   kind,
		From:   from,
		Heal:   from + 1000 + rng.Int64N(7000),
		GroupA: cell.N/3 + rng.IntN(max(1, cell.N/3)),
	}
}

// pickVictim draws an unclaimed node uniformly.
func pickVictim(rng *randutil.Reader, n int, victims map[msg.NodeID]bool) msg.NodeID {
	for tries := 0; tries < 64; tries++ {
		v := msg.NodeID(1 + rng.IntN(n))
		if !victims[v] {
			victims[v] = true
			return v
		}
	}
	return 0
}

// pickStrategyVictim places a strategy's victim where it can act: the
// equivocating dealer must deal (and leaves ≥ t+1 honest dealers);
// relay and flooder victims prefer non-dealer slots so the honest
// dealer quorum survives.
func pickStrategyVictim(rng *randutil.Reader, spec *Spec, name string, victims map[msg.NodeID]bool) msg.NodeID {
	cell := spec.Cell
	dealers := spec.Dealers
	if dealers == 0 {
		dealers = cell.N
	}
	if name == StratAdaptive && cell.F < 2 {
		// Adaptive corruption spends a crash slot; with f < 2 that slot
		// may already be owned by the churn schedule.
		return 0
	}
	if name == StratEquivDealer {
		// Needs a dealer slot plus ≥ t+1 honest dealers left over.
		if dealers < cell.T+2 {
			return 0
		}
		for tries := 0; tries < 64; tries++ {
			v := msg.NodeID(1 + rng.IntN(dealers))
			if !victims[v] {
				victims[v] = true
				return v
			}
		}
		return 0
	}
	if dealers < cell.N {
		// Prefer the non-dealer range when one exists.
		for tries := 0; tries < 64; tries++ {
			v := msg.NodeID(dealers + 1 + rng.IntN(cell.N-dealers))
			if !victims[v] {
				victims[v] = true
				return v
			}
		}
	}
	return pickVictim(rng, cell.N, victims)
}
