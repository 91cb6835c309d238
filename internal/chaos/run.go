package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"strings"

	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
)

// Result reports one scenario run.
type Result struct {
	Spec Spec
	// TraceHash is the run's replay fingerprint: SHA-256 over the
	// scenario spec and the simulator's full scheduling trace. Two runs
	// agree event-for-event iff their hashes agree.
	TraceHash   string
	TraceEvents int
	Stats       simnet.Stats
	HonestDone  int
	LeaderMax   int
	// Violation names the failed invariant ("" = pass); Detail
	// elaborates. Err reports an operational failure (bad spec, setup
	// error) rather than an invariant violation.
	Violation string
	Detail    string
	Err       error
}

// Failed reports whether the run must be surfaced (invariant violation
// or operational error).
func (r *Result) Failed() bool { return r.Violation != "" || r.Err != nil }

// Report renders the failure block the sweep prints: the replayable
// spec, the seed, the drop counters and the traced protocol timeline.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: FAIL seed=%d\n  spec: %s\n", r.Spec.Seed, r.Spec.String())
	if r.Err != nil {
		fmt.Fprintf(&b, "  error: %v\n", r.Err)
	}
	if r.Violation != "" {
		fmt.Fprintf(&b, "  invariant: %s\n  detail: %s\n", r.Violation, r.Detail)
	}
	fmt.Fprintf(&b, "  trace-hash: %s (%d events)\n", r.TraceHash, r.TraceEvents)
	fmt.Fprintf(&b, "  drops: crash=%d filter=%d partition=%d loss=%d  honest-done=%d/%d  leader-changes=%d\n",
		r.Stats.DroppedCrash, r.Stats.DroppedFilter, r.Stats.DroppedPartition, r.Stats.DroppedLoss,
		r.HonestDone, r.Spec.Cell.N, r.LeaderMax)
	fmt.Fprintf(&b, "  replay: dkgsim -lab-replay %d -lab-n %d -lab-backends %s -lab-modes %s",
		r.Spec.Seed, r.Spec.Cell.N, r.Spec.Cell.Backend, cellMode(r.Spec.Cell))
	if r.Spec.Inject != "" {
		fmt.Fprintf(&b, " -lab-inject %s", r.Spec.Inject)
	}
	b.WriteString("\n")
	return b.String()
}

// cellMode names the cell's protocol mode as -lab-modes spells it.
func cellMode(c Cell) string {
	if c.Certificates {
		return "cert"
	}
	return "flood"
}

// traceHasher folds the simulator's scheduling trace into a replay
// fingerprint. It runs on the simulation goroutine only.
type traceHasher struct {
	h      hash.Hash
	events int
}

func newTraceHasher(spec *Spec) *traceHasher {
	th := &traceHasher{h: sha256.New()}
	// Seed the fingerprint with the replay-relevant spec rendering
	// (execution knobs like VerifyWorkers are excluded by String).
	th.h.Write([]byte(spec.String()))
	return th
}

func (t *traceHasher) note(ev simnet.TraceEvent) {
	var buf [49]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(ev.At))
	buf[8] = byte(ev.Kind)
	binary.LittleEndian.PutUint64(buf[9:], uint64(ev.Session))
	binary.LittleEndian.PutUint64(buf[17:], uint64(ev.From))
	binary.LittleEndian.PutUint64(buf[25:], uint64(ev.To))
	binary.LittleEndian.PutUint64(buf[33:], uint64(ev.Type))
	binary.LittleEndian.PutUint64(buf[41:], ev.TimerID)
	t.h.Write(buf[:])
	t.events++
}

func (t *traceHasher) sum() string { return hex.EncodeToString(t.h.Sum(nil)) }

// groupFor maps a cell backend name to group parameters.
func groupFor(backend string) (*group.Group, error) {
	switch backend {
	case "", "modp":
		return group.Test256(), nil
	case "p256":
		return group.P256(), nil
	default:
		return nil, fmt.Errorf("chaos: unknown backend %q (want modp or p256)", backend)
	}
}

// Run executes one scenario and checks its invariants. It is a pure
// function of the spec: the returned TraceHash is identical across
// repeated runs, GOMAXPROCS settings and verify-pool configurations.
func Run(spec Spec) *Result {
	out := &Result{Spec: spec}
	gr, err := groupFor(spec.Cell.Backend)
	if err != nil {
		out.Err = err
		return out
	}
	cell := spec.Cell
	if cell.N < 3*cell.T+2*cell.F+1 {
		out.Err = fmt.Errorf("chaos: cell %s violates n ≥ 3t+2f+1", cell)
		return out
	}

	// Byzantine strategies need the cluster's keys; BuildDirectory is
	// seed-deterministic, so this directory is identical to the one
	// SetupDKG derives internally.
	scheme := sig.Ed25519{}
	dir, privs, err := harness.BuildDirectory(scheme, cell.N, spec.Seed)
	if err != nil {
		out.Err = err
		return out
	}

	opts := harness.DKGOptions{
		N: cell.N, T: cell.T, F: cell.F,
		Seed:           spec.Seed,
		Group:          gr,
		Scheme:         scheme,
		HashedEcho:     spec.HashedEcho,
		DedupDealings:  spec.DedupDealings,
		CompressedWire: spec.CompressedWire,
		Coalesce:       spec.Coalesce,
		Certificates:   cell.Certificates,
		VerifyWorkers:  spec.VerifyWorkers,
		MaxEvents:      spec.MaxEvents,
	}
	if spec.Dealers > 0 {
		for i := spec.Dealers + 1; i <= cell.N; i++ {
			opts.NoDeal = append(opts.NoDeal, msg.NodeID(i))
		}
	}

	b := &build{spec: spec, gr: gr, dir: dir, privs: privs, opts: &opts}
	sh := newShaper(spec)
	b.filters = append(b.filters, sh.filter)
	for _, st := range spec.Strategies {
		if err := installStrategy(b, st); err != nil {
			out.Err = err
			return out
		}
	}
	if spec.Inject != "" {
		if err := installInject(b, spec.Inject); err != nil {
			out.Err = err
			return out
		}
	}
	opts.SessionFilter = chainFilters(b.filters)

	hasher := newTraceHasher(&spec)
	opts.TuneNet = func(o *simnet.Options) {
		o.EventHook = hasher.note
		if testEventHook != nil {
			th := testEventHook
			o.EventHook = func(ev simnet.TraceEvent) {
				hasher.note(ev)
				th(ev)
			}
		}
	}

	dres, err := harness.SetupDKG(&opts)
	if err != nil {
		out.Err = err
		return out
	}
	defer dres.Close()
	sh.bind(dres.Net)

	// Churn: crash/recover through the simulator, kill/restore through
	// the durable-store journal (rolling restarts).
	var journal *harness.Journal
	var journalErr error
	if churnNeedsJournal(spec.Churn) {
		stateDir, err := os.MkdirTemp("", "chaoslab-*")
		if err != nil {
			out.Err = err
			return out
		}
		defer os.RemoveAll(stateDir)
		victim := journalVictim(spec.Churn)
		journal, err = harness.AttachJournal(dres, stateDir, victim, 8)
		if err != nil {
			out.Err = fmt.Errorf("chaos: attach journal: %w", err)
			return out
		}
		defer journal.Close()
	}
	for _, ev := range spec.Churn {
		ev := ev
		switch ev.Op {
		case OpCrash:
			dres.Net.Schedule(ev.At, func() { dres.Net.Crash(ev.Node) })
		case OpRecover:
			dres.Net.Schedule(ev.At, func() { dres.Net.Recover(ev.Node) })
		case OpKill:
			dres.Net.Schedule(ev.At, func() { journal.Kill() })
		case OpRestore:
			dres.Net.Schedule(ev.At, func() {
				if err := journal.Restore(); err != nil && journalErr == nil {
					journalErr = err
				}
			})
		}
	}

	for _, hook := range b.post {
		if err := hook(dres); err != nil {
			out.Err = err
			return out
		}
	}

	if err := dres.StartDealers(); err != nil {
		out.Err = err
		return out
	}
	dres.RunToCompletion(spec.MaxEvents)

	out.Stats = dres.Stats
	out.HonestDone = dres.HonestDone()
	out.LeaderMax = dres.MaxLeaderChanges()
	out.TraceHash = hasher.sum()
	out.TraceEvents = hasher.events
	if journalErr != nil {
		out.Err = fmt.Errorf("chaos: journal restore: %w", journalErr)
		return out
	}
	checkInvariants(&spec, dres, out)
	return out
}

func churnNeedsJournal(churn []ChurnEvent) bool {
	for _, ev := range churn {
		if ev.Op == OpKill || ev.Op == OpRestore {
			return true
		}
	}
	return false
}

func journalVictim(churn []ChurnEvent) msg.NodeID {
	for _, ev := range churn {
		if ev.Op == OpKill || ev.Op == OpRestore {
			return ev.Node
		}
	}
	return 0
}

// runWithHook is a test seam: like Run but with a caller-supplied
// event hook instead of the hasher.
func runWithHook(spec Spec, hook func(simnet.TraceEvent)) *Result {
	saved := testEventHook
	testEventHook = hook
	defer func() { testEventHook = saved }()
	return Run(spec)
}

var testEventHook func(simnet.TraceEvent)
