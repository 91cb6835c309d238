// Command benchmark is the repository's end-to-end benchmark: an
// n-node hybriddkg.Serve cluster inside this process on TCP loopback,
// driven through the public facade and the client protocol, with
// every output checked. See README.md for the workloads, the metrics
// and what the rig cannot tell.
//
//	go run . -workload dkg_seq_n7 -seed 1 -seconds 25 -trace 0   one workload, end-to-end metrics
//	go run . -workload sign_n7 -seed 1 -seconds 25 -trace 1     the same, per-layer metrics
//	go run . -workload all -seed 1                              everything, written to results/
//	go run . -workload layers -seed 1                           the single-goroutine layer pass
//
// run.sh is what BENCHMARK.json names: it builds this package into
// .bench_build/ at the repository root and runs it from here.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root repeats these lists with directions and bounds.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"op_wire_kib", "KiB"},
}

// Group A comes from the traced cluster run, group B from the layers
// pass (see layers.go).
var perLayerMetrics = []metricDef{
	{"runtime.cpu_s_per_op", "s"},
	{"runtime.peak_rss_mib", "MiB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.goroutines_leaked", "count"},
	{"transport.frames_per_op", "count"},
	{"transport.msgs_per_frame", "count"},
	{"transport.coalesce_flushes_per_op", "count"},
	{"engine.sessions_per_op", "count"},
	{"dataplane.items_per_batch", "count"},
	{"dataplane.shed_ratio", "ratio"},
	{"dataplane.peer_cache_hit_ratio", "ratio"},
	{"store.fsyncs_per_dkg", "count"},
	{"store.fsync_ms_per_dkg", "ms"},
	{"store.wal_kib_per_dkg", "KiB"},
	{"verify.cache_hit_ratio", "ratio"},
	{"verify.spec_wasted_ratio", "ratio"},
	{"facade.serve_ms", "ms"},
	{"facade.node_spread_ms", "ms"},
	{"client.rtt_us", "us"},
	{"client.op_tail_ms", "ms"},
	{"client.op_tail_pct", "%"},
	{"trace.overhead_ratio", "ratio"},

	{"group.gexp_us", "us"},
	{"group.exp_us", "us"},
	{"group.multiexp_t1_us", "us"},
	{"group.multiexp_nt_us", "us"},
	{"group.decode_compressed_us", "us"},
	{"poly.interpolate_us", "us"},
	{"commit.new_matrix_us", "us"},
	{"commit.verify_poly_us", "us"},
	{"commit.verify_point_us", "us"},
	{"commit.batch_flush_n_us", "us"},
	{"commit.unmarshal_matrix_us", "us"},
	{"sig.sign_us", "us"},
	{"sig.verify_us", "us"},
	{"msg.encode_send_us", "us"},
	{"msg.decode_send_us", "us"},
	{"msg.send_bytes", "B"},
	{"msg.encode_echo_us", "us"},
	{"transport.seal_us", "us"},
	{"transport.open_us", "us"},
	{"transport.seal_batch8_us", "us"},
	{"transport.rtt_us", "us"},
	{"store.append_sync_us", "us"},
	{"store.append_nosync_us", "us"},
	{"store.snapshot_us", "us"},
	{"thresh.partial_sign_us", "us"},
	{"thresh.combine_us", "us"},
	{"thresh.partial_decrypt_us", "us"},
	{"thresh.verify_partial_decrypt_us", "us"},
	{"thresh.combine_decrypt_us", "us"},
	{"vss.simnet_share_ms", "ms"},
	{"dkg.simnet_ms", "ms"},
	{"dkg.simnet_msgs", "count"},
	{"dkg.simnet_bytes", "B"},
	{"dataplane.simnet_sign_us", "us"},
	{"dataplane.simnet_decrypt_us", "us"},
}

// The cluster every workload measures (the smoke test's is smaller),
// and how many times an untraced run sets it up.
const (
	clusterN       = 7
	clusterT       = 2
	measuredSetups = 5
)

// environment is recorded in every JSON output: a number means little
// without the box and the settings it was measured with.
type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitCommit   string  `json:"git_commit"`
	LoadAvg     string  `json:"loadavg_at_start"`
	StateDirFS  string  `json:"state_dir_fs"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Group       string  `json:"group"`
	N           int     `json:"n"`
	T           int     `json:"t"`
	Callers     int     `json:"callers"`
	Connections int     `json:"connections"`
}

func readEnvironment(seed uint64, seconds float64, outDir string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: gitCommit(), LoadAvg: "unknown", StateDirFS: fsType(outDir),
		Seed: seed, Seconds: seconds, Group: groupName, N: clusterN, T: clusterT,
		Callers: numCallers, Connections: numConns,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.TrimSpace(string(b))
	}
	return env
}

// gitCommit reads HEAD of the repository this directory belongs to,
// without running git ("unknown" in an exported checkout). It looks
// one level up and no further: the rig reads nothing outside its
// checkout.
func gitCommit() string {
	gitDir := filepath.Join("..", ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref // packed ref: the branch name is still worth recording
}

// fsType names the filesystem under dir (the durable workload and the
// store probes measure its fsync).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// report is the JSON written by -json and to results/.
type report struct {
	Env          environment        `json:"environment"`
	Runs         []*result          `json:"runs,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	LayerSamples map[string]int     `json:"layer_samples,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints every metric by name with its unit.
func printMetrics(title string, defs []metricDef, values map[string]float64, samples func(string) int) {
	fmt.Println(title)
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-36s %14.4f %s", d.name, v, d.unit)
		if n := samples(d.name); n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
}

func printResult(res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("%s (%s): %s; %.1f s measured, %d attempted, %d failed, loadgen.inputs_s %.3f, loadgen.max_start_skew_us %.0f, loadgen.skew_strands %d, host.steal_ratio %.3f\n",
		res.Workload, mode, res.Load, res.MeasuredS, res.Attempted, res.Failed, res.InputsS, res.MaxSkewUs, res.SkewStrands, res.HostSteal)
	printMetrics("  end to end:", endToEndMetrics, res.EndToEnd, func(name string) int {
		if name == "setup_s" {
			return res.SetupSamples
		}
		return res.Samples
	})
	if res.PerLayer != nil {
		printMetrics("  per layer (traced run):", perLayerMetrics, res.PerLayer, func(string) int { return 0 })
	}
}

// headline is the timing trace.overhead_ratio compares.
func headline(res *result) float64 { return res.EndToEnd["op_p50_ms"] }

// contractLine is the last line of standard output in single-workload
// mode: the object the benchmark driver reads.
func contractLine(defs []metricDef, values map[string]float64, attempted, failed int) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func main() {
	var (
		name    = flag.String("workload", "all", "one of "+strings.Join(workloadNames(), ", ")+", all or layers")
		seed    = flag.Uint64("seed", 1, "seed of the load generator's inputs")
		seconds = flag.Float64("seconds", 30, "measured time of an untraced run")
		trace   = flag.Int("trace", 0, "single workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		jsonOut = flag.String("json", "", "also write the report as JSON to this file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// Artifacts (spans, profiles, state directories) go to out/ and the
// committed results to results/, both beside the sources: run the
// program from its own directory, as run.sh does.
const (
	outDir     = "out"
	resultsDir = "results"
)

func run(name string, seed uint64, seconds float64, traced bool, jsonOut string) error {
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rep := &report{Env: readEnvironment(seed, seconds, outDir)}
	var err error
	switch name {
	case "all":
		err = runAll(rep, seed, seconds)
	case "layers":
		rep.Layers, rep.LayerSamples, err = runLayers(seed, clusterN, clusterT, 200, time.Minute, outDir, newTracer())
		if err == nil {
			printLayers(rep)
		}
	default:
		wl, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		err = runOne(rep, wl, seed, seconds, traced)
	}
	if jsonOut != "" && len(rep.Runs)+len(rep.Layers) > 0 {
		if werr := writeJSON(jsonOut, rep); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func printLayers(rep *report) {
	printMetrics("layers pass (single goroutine, medians):", perLayerMetrics, rep.Layers,
		func(name string) int { return rep.LayerSamples[name] })
}

func baseSpec(wl workload, seed uint64, seconds float64) runSpec {
	return runSpec{wl: wl, n: clusterN, t: clusterT, seed: seed, seconds: seconds, setups: 1, outDir: outDir}
}

// runOne is the single-workload mode the benchmark driver uses. With
// tracing off it sets up measuredSetups times (set-up time is one
// sample per cluster, so the median needs several) and measures for the
// full time. With tracing on it spends half the time untraced and
// half traced, so the traced numbers come with their own overhead
// ratio, and adds the layers pass under a short per-probe budget.
func runOne(rep *report, wl workload, seed uint64, seconds float64, traced bool) error {
	if !traced {
		rs := baseSpec(wl, seed, seconds)
		rs.setups = measuredSetups
		res, err := runWorkload(rs)
		if res == nil {
			return err
		}
		rep.Runs = append(rep.Runs, res)
		printResult(res)
		fmt.Println(contractLine(endToEndMetrics, res.EndToEnd, res.Attempted, res.Failed))
		return failedOr(err, res)
	}
	plain, err := runWorkload(baseSpec(wl, seed, seconds/2))
	if plain == nil {
		return err
	}
	rep.Runs = append(rep.Runs, plain)
	if err := failedOr(err, plain); err != nil {
		printResult(plain)
		return err
	}
	res, err := runTraced(wl, seed, seconds/2, plain)
	if res == nil {
		return err
	}
	rep.Runs = append(rep.Runs, res)
	var lerr error
	rep.Layers, rep.LayerSamples, lerr = runLayers(seed, clusterN, clusterT, 200, 300*time.Millisecond, outDir, nil)
	if lerr != nil {
		return lerr
	}
	for k, v := range rep.Layers {
		res.PerLayer[k] = v
	}
	printResult(res)
	fmt.Println(contractLine(perLayerMetrics, res.PerLayer, res.Attempted+plain.Attempted, res.Failed+plain.Failed))
	return failedOr(err, res)
}

// runTraced runs wl traced and sets its overhead ratio against the
// untraced run plain.
func runTraced(wl workload, seed uint64, seconds float64, plain *result) (*result, error) {
	rs := baseSpec(wl, seed, seconds)
	rs.traced = true
	res, err := runWorkload(rs)
	if res != nil {
		res.PerLayer["trace.overhead_ratio"] = ratio(headline(res), headline(plain))
	}
	return res, err
}

func failedOr(err error, res *result) error {
	if err == nil && res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	return err
}

// runAll runs the four workloads untraced, then each traced at a
// quarter of the length, then the layers pass, with a fresh cluster
// per run, and writes results/BENCH_E2E.json and BENCH_LAYERS.json.
func runAll(rep *report, seed uint64, seconds float64) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	plain := map[string]*result{}
	for _, wl := range workloads {
		rs := baseSpec(wl, seed, seconds)
		rs.setups = measuredSetups
		res, err := runWorkload(rs)
		if res == nil {
			return err
		}
		note(failedOr(err, res))
		plain[wl.name] = res
		rep.Runs = append(rep.Runs, res)
		printResult(res)
	}
	e2e := &report{Env: rep.Env, Runs: append([]*result(nil), rep.Runs...)}
	for _, wl := range workloads {
		res, err := runTraced(wl, seed, seconds/4, plain[wl.name])
		if res == nil {
			return err
		}
		note(failedOr(err, res))
		rep.Runs = append(rep.Runs, res)
		printResult(res)
	}
	var err error
	rep.Layers, rep.LayerSamples, err = runLayers(seed, clusterN, clusterT, 200, time.Minute, outDir, newTracer())
	if err != nil {
		return err
	}
	printLayers(rep)
	layers := &report{Env: rep.Env, Runs: rep.Runs[len(e2e.Runs):], Layers: rep.Layers, LayerSamples: rep.LayerSamples}
	note(writeJSON(filepath.Join(resultsDir, "BENCH_E2E.json"), e2e))
	note(writeJSON(filepath.Join(resultsDir, "BENCH_LAYERS.json"), layers))
	return firstErr
}
