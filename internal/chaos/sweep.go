package chaos

import "fmt"

// SweepOptions configures a seed sweep across lab cells.
type SweepOptions struct {
	// Seeds to run per cell.
	Seeds []uint64
	// Cells to sweep (see DefaultCells).
	Cells []Cell
	// Inject names an injected bug applied to every scenario.
	Inject string
	// VerifyWorkers overrides the scenario's verify-pool width (0 =
	// pool off). Execution-only: it never moves the trace hash.
	VerifyWorkers int
	// Progress, when set, observes every finished run.
	Progress func(*Result)
	// StopOnFailure aborts the sweep at the first failing run.
	StopOnFailure bool
}

// SweepSummary aggregates a sweep.
type SweepSummary struct {
	Runs     int
	Failures []*Result
}

// Failed reports whether any run failed.
func (s *SweepSummary) Failed() bool { return len(s.Failures) > 0 }

// Sweep runs RandomSpec scenarios for every (seed, cell) pair. Cells
// vary deterministically per seed, so a failing (seed, cell) is fully
// replayable via Replay.
func Sweep(opts SweepOptions) *SweepSummary {
	sum := &SweepSummary{}
	for _, seed := range opts.Seeds {
		for _, cell := range opts.Cells {
			res := Replay(seed, cell, opts.Inject, opts.VerifyWorkers)
			sum.Runs++
			if opts.Progress != nil {
				opts.Progress(res)
			}
			if res.Failed() {
				sum.Failures = append(sum.Failures, res)
				if opts.StopOnFailure {
					return sum
				}
			}
		}
	}
	return sum
}

// Replay reproduces the (seed, cell) scenario exactly: the spec
// derivation and every scheduling decision are functions of the pair,
// so repeated calls yield identical trace hashes.
func Replay(seed uint64, cell Cell, inject string, verifyWorkers int) *Result {
	spec := RandomSpec(seed, cell)
	spec.Inject = inject
	spec.VerifyWorkers = verifyWorkers
	return Run(spec)
}

// DefaultCells builds the lab's standard sweep grid: each cluster size
// × each backend × flood and certificate modes. Shapes satisfy
// n ≥ 3t+2f+1 with small thresholds so large cells stay tractable
// (the Any-Trust dealer restriction in RandomSpec does the rest).
func DefaultCells(sizes []int, backends []string, modes []string) ([]Cell, error) {
	var cells []Cell
	for _, n := range sizes {
		t, f, err := ShapeFor(n)
		if err != nil {
			return nil, err
		}
		for _, be := range backends {
			if be != "modp" && be != "p256" {
				return nil, fmt.Errorf("chaos: unknown backend %q", be)
			}
			for _, mode := range modes {
				switch mode {
				case "flood":
					cells = append(cells, Cell{N: n, T: t, F: f, Backend: be})
				case "cert":
					cells = append(cells, Cell{N: n, T: t, F: f, Backend: be, Certificates: true})
				default:
					return nil, fmt.Errorf("chaos: unknown mode %q (want flood or cert)", mode)
				}
			}
		}
	}
	return cells, nil
}

// ShapeFor picks (t, f) for a cluster size: the tight shape at the
// paper's minimum n=3t+2f+1, small thresholds above it.
func ShapeFor(n int) (t, f int, err error) {
	switch {
	case n >= 16:
		return 3, 2, nil // 3t+2f+1 = 14 ≤ n
	case n >= 13:
		return 2, 3, nil // tight at n=13
	case n >= 10:
		return 2, 1, nil
	case n >= 7:
		return 1, 1, nil
	default:
		return 0, 0, fmt.Errorf("chaos: cluster size %d below the n ≥ 7 lab minimum", n)
	}
}
