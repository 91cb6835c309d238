package main

import (
	"context"
	"encoding/json"
	"math/big"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"hybriddkg"
	"hybriddkg/internal/group"
)

// smokeSpec shrinks a workload to a 4-node cluster and a handful of
// operations, traced so the artifact paths run too.
func smokeSpec(t *testing.T, name string, ops int) runSpec {
	wl, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	wl.warm = 1
	return runSpec{wl: wl, n: 4, t: 1, seed: 1, seconds: 60, maxOps: ops, setups: 1, traced: true, outDir: t.TempDir()}
}

// TestSmoke runs every workload and the layers pass at toy size, so
// the rig cannot rot unnoticed, and checks that each reports exactly
// the metrics the rig declares.
func TestSmoke(t *testing.T) {
	perLayer := map[string]bool{}
	for _, tc := range []struct {
		name string
		ops  int
	}{{"dkg_seq_n7", 3}, {"dkg_durable_n7", 2}, {"decrypt_n7", 10}, {"sign_n7", 5}} {
		rs := smokeSpec(t, tc.name, tc.ops)
		res, err := runWorkload(rs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Failed != 0 || res.Attempted != tc.ops || res.Samples != tc.ops {
			t.Errorf("%s: attempted %d, failed %d, samples %d; want %d clean operations", tc.name, res.Attempted, res.Failed, res.Samples, tc.ops)
		}
		if got, want := sortedKeys(res.EndToEnd), names(endToEndMetrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", tc.name, got, want)
		}
		for k, v := range res.EndToEnd {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", tc.name, k, v)
			}
		}
		if res.PerLayer["runtime.goroutines_leaked"] != 0 {
			t.Errorf("%s: %v goroutines leaked", tc.name, res.PerLayer["runtime.goroutines_leaked"])
		}
		if fs := res.PerLayer["store.fsyncs_per_dkg"]; (fs > 0) != rs.wl.durable {
			t.Errorf("%s: store.fsyncs_per_dkg = %v", tc.name, fs)
		}
		// decrypt_n7 starts no session of its own, but at this size the
		// key's first nonce sessions may still be finishing; no claim there.
		if rs.wl.kind != kindDecrypt && res.PerLayer["engine.sessions_per_op"] <= 0 {
			t.Errorf("%s: engine.sessions_per_op = %v", tc.name, res.PerLayer["engine.sessions_per_op"])
		}
		for _, f := range []string{".spans.jsonl", ".cpu.pprof"} {
			if st, err := os.Stat(rs.outDir + "/" + tc.name + f); err != nil || st.Size() == 0 {
				t.Errorf("%s: artifact %s missing or empty (%v)", tc.name, f, err)
			}
		}
		if _, err := os.Stat(rs.outDir + "/" + tc.name + ".state"); !os.IsNotExist(err) {
			t.Errorf("%s: state directory left behind", tc.name)
		}
		for k := range res.PerLayer {
			perLayer[k] = true
		}
	}
	layers, samples, err := runLayers(1, 4, 1, 1, 0, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range layers {
		if samples[k] != 1 {
			t.Errorf("layers: %s has %d samples, want 1", k, samples[k])
		}
		perLayer[k] = true
	}
	perLayer["trace.overhead_ratio"] = true // computed from two runs, in main
	got := make([]string, 0, len(perLayer))
	for k := range perLayer {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := names(perLayerMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics reported %v, declared %v", got, want)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// TestChecksAreLive feeds the rig's own checkers a signature with one
// byte flipped, a wrong plaintext and a node reporting a different
// public key: each must be counted as a failed operation and kept out
// of the latency samples.
func TestChecksAreLive(t *testing.T) {
	gr, err := group.ByName(groupName)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(smokeSpec(t, "sign_n7", 1), gr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cl := r.clients[0]
	message := []byte("the message that was signed")
	sg, err := cl.Sign(ctx, keyID, message)
	if err != nil {
		t.Fatal(err)
	}
	evs, _, _, err := r.c.runSession(2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	var good tally
	good.record(time.Millisecond, checkSignature(cl, r.pk, message, sg))
	good.record(time.Millisecond, checkPlaintext(r.pk, r.pk))
	good.record(time.Millisecond, checkDKG(gr, r.rs.t, evs, true))
	if good.failed != 0 || len(good.latMs) != 3 {
		t.Fatalf("genuine outputs rejected: %+v", good)
	}

	flipped := hybriddkg.Signature{R: sg.R, Sigma: new(big.Int).Xor(sg.Sigma, big.NewInt(0x80))}
	otherKey := append([]nodeEvent(nil), evs...)
	otherKey[2].ev.PublicKey = gr.GExp(big.NewInt(7))
	otherShare := append([]nodeEvent(nil), evs...)
	otherShare[0].ev.Share = new(big.Int).Add(evs[0].ev.Share, big.NewInt(1))
	var bad tally
	for name, err := range map[string]error{
		"flipped signature byte":     checkSignature(cl, r.pk, message, flipped),
		"wrong plaintext":            checkPlaintext(gr.GExp(big.NewInt(7)), r.pk),
		"missing plaintext":          checkPlaintext(nil, r.pk),
		"node with another key":      checkDKG(gr, r.rs.t, otherKey, false),
		"share off the shared curve": checkDKG(gr, r.rs.t, otherShare, true),
	} {
		if err == nil {
			t.Errorf("%s passed its check", name)
		}
		bad.record(time.Millisecond, err)
	}
	if bad.attempted != 5 || bad.failed != 5 || len(bad.latMs) != 0 {
		t.Errorf("bad outputs not counted as failures: %+v", bad)
	}
}

// TestFailedSessionIsCounted makes the cluster fail a session (its id
// was used before, so every node refuses the Start): the session must
// count as attempted and failed with no latency, and the refusals left
// over on the failure channel must not be charged to the next session.
func TestFailedSessionIsCounted(t *testing.T) {
	gr, err := group.ByName(groupName)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(smokeSpec(t, "dkg_seq_n7", 1), gr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	var ta tally
	r.nextSID = 1 // the warm-up session's id
	if err := r.session(&ta, true); err != nil {
		t.Fatal(err)
	}
	if ta.attempted != 1 || ta.failed != 1 || len(ta.latMs) != 0 {
		t.Fatalf("refused session not counted as a failure: %+v", ta)
	}
	if err := r.session(&ta, true); err != nil { // id 2, with refusals of id 1 still queued
		t.Fatal(err)
	}
	if ta.attempted != 2 || ta.failed != 1 || len(ta.latMs) != 1 {
		t.Errorf("session after a failed one: %+v", ta)
	}
}

// TestSkewStrandIsExcused takes the processor from the rig for 50 ms
// after three of four Starts: the three complete among themselves, the
// fourth is stranded. The session must be reported as the load
// generator's fault, not as an operation, its wait must come off the
// measured time, and the next session must run as usual.
func TestSkewStrandIsExcused(t *testing.T) {
	gr, err := group.ByName(groupName)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(smokeSpec(t, "dkg_seq_n7", 1), gr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	skewGrace = 300 * time.Millisecond
	stallStart = func(i int) {
		if i == 2 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	defer func() { skewGrace, stallStart = 3*time.Second, nil }()
	var ta tally
	if err := r.session(&ta, true); err != nil {
		t.Fatal(err)
	}
	if ta.attempted != 0 || r.strands != 1 || r.excused < skewGrace {
		t.Fatalf("stranded session: tally %+v, strands %d, excused %v", ta, r.strands, r.excused)
	}
	stallStart = nil
	if err := r.session(&ta, true); err != nil {
		t.Fatal(err)
	}
	if ta.attempted != 1 || ta.failed != 0 || len(ta.latMs) != 1 {
		t.Errorf("session after a stranded one: %+v", ta)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in
// step with what the rig reports. Skipped where the file is absent.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates a subset (dkg_durable_n7 is left out, see
	// README.md); what it names must be what the rig runs.
	if len(spec.Workloads) < 2 {
		t.Errorf("%d workloads declared, want at least 2", len(spec.Workloads))
	}
	for _, decl := range spec.Workloads {
		wl, ok := workloadByName(decl.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the rig does not have", decl.Name)
			continue
		}
		if decl.Why != wl.why {
			t.Errorf("%s: BENCHMARK.json says %q, the rig %q", wl.name, decl.Why, wl.why)
		}
	}
	for _, wl := range workloads {
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", wl.name, len(wl.why))
		}
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("%s: %d metrics declared, the rig reports %d", c.what, len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the rig %s (%s)", c.what, i, c.declared[i].Name, c.declared[i].Unit, d.name, d.unit)
			}
		}
	}
}
