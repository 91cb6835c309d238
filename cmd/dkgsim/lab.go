package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hybriddkg/internal/chaos"
)

// Lab flags (DESIGN.md E23). -lab sweeps seed-derived scenarios over
// the cell grid; -lab-replay reproduces one (seed, cell) pair and
// proves it by running it twice and comparing trace hashes.
var (
	labFlag     = flag.Bool("lab", false, "run the adversarial scenario lab sweep")
	labSeeds    = flag.String("lab-seeds", "1-20", "seed set: 'a-b' range or comma list")
	labN        = flag.String("lab-n", "13,64,128", "cluster sizes (comma list)")
	labBackends = flag.String("lab-backends", "modp,p256", "group backends (comma list of modp,p256)")
	labModes    = flag.String("lab-modes", "flood,cert", "protocol modes (comma list of flood,cert)")
	labReplay   = flag.Uint64("lab-replay", 0, "replay one failing seed (needs single-valued -lab-n/-lab-backends/-lab-modes)")
	labInject   = flag.String("lab-inject", "", "inject a named implementation bug into every scenario (drop-help, drop-echo-to-1)")
	labVerify   = flag.Int("lab-verify", 0, "verify-pool width (execution knob; never moves the trace hash)")
	labStop     = flag.Bool("lab-stop", false, "stop the sweep at the first failure")
)

func labRequested() bool { return *labFlag || *labReplay != 0 }

func runLab() error {
	cells, err := labCells()
	if err != nil {
		return err
	}
	if *labReplay != 0 {
		return replayOne(cells)
	}
	seeds, err := parseSeeds(*labSeeds)
	if err != nil {
		return err
	}
	fmt.Printf("## E23 — adversarial scenario lab (%d seeds × %d cells)\n\n", len(seeds), len(cells))
	start := time.Now()
	sum := chaos.Sweep(chaos.SweepOptions{
		Seeds:         seeds,
		Cells:         cells,
		Inject:        *labInject,
		VerifyWorkers: *labVerify,
		StopOnFailure: *labStop,
		Progress: func(r *chaos.Result) {
			status := "pass"
			if r.Failed() {
				status = "FAIL"
			}
			fmt.Printf("%s seed=%-4d %-28s hash=%.12s events=%-7d done=%d\n",
				status, r.Spec.Seed, r.Spec.Cell, r.TraceHash, r.TraceEvents, r.HonestDone)
			if r.Failed() {
				fmt.Println(r.Report())
			}
		},
	})
	fmt.Printf("\n%d scenarios, %d failures, %v\n", sum.Runs, len(sum.Failures), time.Since(start).Round(time.Millisecond))
	if sum.Failed() {
		return fmt.Errorf("lab: %d of %d scenarios failed", len(sum.Failures), sum.Runs)
	}
	return nil
}

// replayOne reruns a single (seed, cell) scenario twice and checks the
// trace hashes agree — the lab's reproducibility contract, applied to
// the exact command line a failure report prints.
func replayOne(cells []chaos.Cell) error {
	if len(cells) != 1 {
		return fmt.Errorf("lab: -lab-replay needs exactly one cell; pin -lab-n, -lab-backends and -lab-modes (got %d cells)", len(cells))
	}
	seed, cell := *labReplay, cells[0]
	fmt.Printf("## E23 — replay seed=%d cell={%s}\n\n", seed, cell)
	a := chaos.Replay(seed, cell, *labInject, *labVerify)
	b := chaos.Replay(seed, cell, *labInject, *labVerify)
	fmt.Printf("spec: %s\n", a.Spec.String())
	fmt.Printf("run 1: hash=%s events=%d done=%d\n", a.TraceHash, a.TraceEvents, a.HonestDone)
	fmt.Printf("run 2: hash=%s events=%d done=%d\n", b.TraceHash, b.TraceEvents, b.HonestDone)
	if a.TraceHash != b.TraceHash {
		return fmt.Errorf("lab: replay NOT deterministic — trace hashes differ")
	}
	fmt.Println("replay deterministic: trace hashes identical")
	if a.Failed() {
		fmt.Println()
		fmt.Println(a.Report())
		return fmt.Errorf("lab: scenario fails (reproducibly)")
	}
	fmt.Println("scenario passes")
	return nil
}

func labCells() ([]chaos.Cell, error) {
	sizes, err := parseInts(*labN)
	if err != nil {
		return nil, fmt.Errorf("lab: -lab-n: %w", err)
	}
	return chaos.DefaultCells(sizes, splitList(*labBackends), splitList(*labModes))
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseSeeds accepts "a-b" (inclusive range) or a comma list.
func parseSeeds(s string) ([]uint64, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || a > b {
			return nil, fmt.Errorf("lab: bad seed range %q", s)
		}
		if b-a >= 100_000 {
			return nil, fmt.Errorf("lab: seed range %q too large (max 100000)", s)
		}
		out := make([]uint64, 0, b-a+1)
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []uint64
	for _, p := range splitList(s) {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("lab: bad seed %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lab: empty seed list")
	}
	return out, nil
}
