package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hybriddkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

const groupName = "p256"

type opKind int

const (
	kindDKG opKind = iota
	kindDecrypt
	kindSign
)

// workload is one named traffic mix. The names are fixed: later
// issues cite them.
type workload struct {
	name    string
	why     string
	kind    opKind
	durable bool
	warm    int // operations (sessions or requests) run and discarded before the clock starts
}

var workloads = []workload{
	{
		name: "dkg_seq_n7", kind: kindDKG, warm: 20,
		why: "DKG sessions strictly one at a time, state in memory: group/commit/vss/dkg crypto plus sequential transport hops, nothing to store or dataplane",
	},
	{
		name: "dkg_durable_n7", kind: kindDKG, durable: true, warm: 5,
		why: "the same sessions with StateDir on every node: the difference to dkg_seq_n7 is the store layer (fsync per append) and the single-loop fallback",
	},
	{
		name: "decrypt_n7", kind: kindDecrypt, warm: 800,
		why: "closed loop of 8 callers decrypting distinct ciphertexts: dataplane queueing, thresh partial/verify/combine, one transport round trip; never starts a DKG, so vss/dkg/commit changes must not move it",
	},
	{
		name: "sign_n7", kind: kindSign, warm: 80,
		why: "closed loop of 8 callers signing distinct messages: one background nonce DKG per signature, so dkg/vss/engine run concurrently with the data plane under serving load, unlike in dkg_seq_n7",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// The serving load: callers of a signing service wait for their
// reply, so the loop is closed. Eight outstanding callers is the
// smallest load that can fill the data plane's batch watermark (8);
// two connections match the reference box's two cores.
const (
	numCallers = 8
	numConns   = 2
	keyID      = 1
	deepEvery  = 20 // every deepEvery-th session also reconstructs the secret from t+1 shares
)

// runSpec is one run of one workload.
type runSpec struct {
	wl      workload
	n, t    int
	seed    uint64
	seconds float64 // measured time
	maxOps  int     // stop after this many measured operations (0 = run for seconds)
	setups  int     // set up this many times and report the median
	traced  bool
	outDir  string
}

// result is what one run reports.
type result struct {
	Workload     string             `json:"workload"`
	Traced       bool               `json:"traced"`
	Load         string             `json:"load"`
	MeasuredS    float64            `json:"measured_s"`
	Attempted    int                `json:"ops_attempted"`
	Failed       int                `json:"ops_failed"`
	Samples      int                `json:"latency_samples"`
	SetupSamples int                `json:"setup_samples"`
	InputsS      float64            `json:"loadgen.inputs_s"`
	MaxSkewUs    float64            `json:"loadgen.max_start_skew_us"`
	SkewStrands  int                `json:"loadgen.skew_strands"`
	HostSteal    float64            `json:"host.steal_ratio"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
}

// tally counts operations against attempts. A failed operation has no
// latency: it is excluded from the timings and reported as a failure.
type tally struct {
	attempted, failed int
	latMs             []float64 // latency of each good operation
}

func (t *tally) record(d time.Duration, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "operation failed: %v\n", err)
		}
		return
	}
	t.latMs = append(t.latMs, ms(d))
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.latMs = append(t.latMs, o.latMs...)
}

// --- output checks ----------------------------------------------------

// checkDKG verifies one session's outcome: every node reports the
// same public key, and when deep is set the first t+1 reported shares
// interpolate to a secret s with g^s equal to that key.
func checkDKG(gr *group.Group, t int, evs []nodeEvent, deep bool) error {
	pk := evs[0].ev.PublicKey
	for _, ne := range evs[1:] {
		if !ne.ev.PublicKey.Equal(pk) {
			return fmt.Errorf("session %d: node %d reports a different public key", ne.ev.Session, ne.node+1)
		}
	}
	if !deep {
		return nil
	}
	pts := make([]poly.Point, t+1)
	for i := range pts {
		pts[i] = poly.Point{X: int64(evs[i].node + 1), Y: evs[i].ev.Share}
	}
	s, err := poly.Interpolate(gr.Q(), pts, 0)
	if err != nil {
		return fmt.Errorf("session %d: interpolate: %w", evs[0].ev.Session, err)
	}
	if !gr.GExp(s).Equal(pk) {
		return fmt.Errorf("session %d: shares do not reconstruct the public key", evs[0].ev.Session)
	}
	return nil
}

func checkSignature(cl *hybriddkg.Client, pk hybriddkg.Element, message []byte, sg hybriddkg.Signature) error {
	if !cl.Verify(pk, message, sg) {
		return errors.New("signature does not verify under the key's public key")
	}
	return nil
}

func checkPlaintext(got, want hybriddkg.Element) error {
	if got == nil || !got.Equal(want) {
		return errors.New("decryption differs from the plaintext")
	}
	return nil
}

// --- the rig ----------------------------------------------------------

// rig is one set-up cluster ready to be measured.
type rig struct {
	rs       runSpec
	gr       *group.Group
	tr       *tracer
	c        *cluster
	clients  []*hybriddkg.Client
	callers  []*caller
	pk       hybriddkg.Element
	nextSID  uint64
	spreads  []float64     // last minus first node Event per measured session, ms
	maxSkew  time.Duration // longest the rig took to issue one session's n Starts
	strands  int           // sessions lost to the rig's own late Starts (errSkewStrand)
	excused  time.Duration // time spent waiting for them, taken off the measured time
	warmPerS float64       // requests per second the serving warm-up reached
	setupS   float64       // wall time of set-up, input generation excluded
	inputsS  float64
}

// input is one pre-generated request: a message to sign, or a
// ciphertext with the plaintext it must decrypt to.
type input struct {
	message []byte
	ct      hybriddkg.Ciphertext
	plain   hybriddkg.Element
}

// caller is one closed-loop client: it issues its next request only
// after the previous reply. Its inputs come from its own seeded
// stream, so every request of a run is distinct and result caches
// cannot answer.
type caller struct {
	cl    *hybriddkg.Client
	rng   *randutil.Reader
	queue []input
	ops   uint64
}

func (r *rig) generate(ca *caller) (input, error) {
	if r.rs.wl.kind == kindSign {
		m := make([]byte, 32)
		ca.rng.Read(m) //nolint:errcheck // the seeded reader never fails
		return input{message: m}, nil
	}
	k, err := r.gr.RandScalar(ca.rng)
	if err != nil {
		return input{}, err
	}
	plain := r.gr.GExp(k)
	ct, err := thresh.Encrypt(r.gr, r.pk, plain, ca.rng)
	if err != nil {
		return input{}, err
	}
	return input{ct: hybriddkg.Ciphertext{C1: ct.C1, C2: ct.C2}, plain: plain}, nil
}

// prefill generates k more inputs per caller, before the clock starts.
func (r *rig) prefill(k int) error {
	t0 := time.Now()
	for _, ca := range r.callers {
		for i := 0; i < k; i++ {
			in, err := r.generate(ca)
			if err != nil {
				return err
			}
			ca.queue = append(ca.queue, in)
		}
	}
	r.inputsS += time.Since(t0).Seconds()
	return nil
}

// next pops a pre-generated input; a caller that outruns its queue
// generates inline rather than repeat a request.
func (r *rig) next(ca *caller) (input, error) {
	if len(ca.queue) == 0 {
		return r.generate(ca)
	}
	in := ca.queue[0]
	ca.queue = ca.queue[1:]
	return in, nil
}

// setUp builds a cluster and brings it to the state the measurement
// starts from: connections dialled, caches and tables warm, and for
// the serving workloads a key generated and answering.
func setUp(rs runSpec, gr *group.Group, tr *tracer) (*rig, error) {
	spec := clusterSpec{n: rs.n, t: rs.t, metrics: rs.traced}
	if rs.wl.durable {
		spec.stateDir = filepath.Join(rs.outDir, rs.wl.name+".state")
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		r := &rig{rs: rs, gr: gr, tr: tr, nextSID: 1}
		if spec.stateDir != "" {
			os.RemoveAll(spec.stateDir) // left behind by a killed run
		}
		t0 := time.Now()
		if r.c, err = newCluster(spec, tr); err != nil {
			return nil, err
		}
		if err = r.warm(); err == nil {
			r.setupS = (time.Since(t0) - r.excused).Seconds() - r.inputsS
			return r, nil
		}
		if errors.Is(err, errDeadline) {
			r.c.dumpStats()
		}
		r.close()
		if !errors.Is(err, errSkewStrand) {
			break
		}
		// The key's own session was lost to the rig's late Starts: the
		// cluster has no key to serve, so build another.
		fmt.Fprintf(os.Stderr, "load generator: %v\n", err)
	}
	return nil, fmt.Errorf("set-up: %w", err)
}

func (r *rig) warm() error {
	if r.rs.wl.kind == kindDKG {
		var warm tally
		for i := 0; i < r.rs.wl.warm; i++ {
			if err := r.session(&warm, false); err != nil {
				return err
			}
		}
		if warm.failed > 0 {
			return fmt.Errorf("%d warm-up sessions failed", warm.failed)
		}
		return nil
	}
	evs, _, _, err := r.c.runSession(keyID, r.tr, 0)
	if err != nil {
		return err
	}
	if err := checkDKG(r.gr, r.rs.t, evs, true); err != nil {
		return err
	}
	for i := 0; i < numConns; i++ {
		sp := r.tr.begin("client.dial", 0, uint64(i))
		cl, err := hybriddkg.Dial(r.c.nodes[0].ClientAddr())
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.clients = append(r.clients, cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	info, err := r.clients[0].KeyInfo(ctx, keyID)
	if err != nil {
		return fmt.Errorf("key info: %w", err)
	}
	if !info.PublicKey.Equal(evs[0].ev.PublicKey) {
		return errors.New("key info reports a different public key than the DKG")
	}
	r.pk = info.PublicKey
	for i := 0; i < numCallers; i++ {
		r.callers = append(r.callers, &caller{
			cl:  r.clients[i%numConns],
			rng: randutil.NewReader(r.rs.seed<<8 | uint64(i)),
		})
	}
	// The warm-up is a count of operations, not a time, so that set-up
	// time is work done and scales with the host like the rest. Any
	// caller may take any share of the count, hence the double queue.
	if err := r.prefill(2*r.rs.wl.warm/numCallers + 1); err != nil {
		return err
	}
	t0 := time.Now()
	warm, timedOut := r.serve(dkgTimeout, r.rs.wl.warm)
	r.warmPerS = float64(r.rs.wl.warm) / time.Since(t0).Seconds()
	if timedOut {
		return errDeadline
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed", warm.failed, warm.attempted)
	}
	return nil
}

// prefillFor sizes a caller's queue for a loop of the given length at
// twice the rate the warm-up reached, so queues rarely run dry and
// generation stays off the clock.
func (r *rig) prefillFor(seconds float64) int {
	k := int(2*r.warmPerS*seconds)/numCallers + 1
	if r.rs.maxOps > 0 {
		k = min(k, r.rs.maxOps)
	}
	return k
}

func (r *rig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.c.close()
}

// session runs one DKG on every node and records it: the latency is
// from the first Start to the last node's Event.
func (r *rig) session(into *tally, measured bool) error {
	sid := r.nextSID
	r.nextSID++
	sp := r.tr.begin("facade.session", 0, sid)
	evs, t0, skew, err := r.c.runSession(sid, r.tr, sp)
	r.tr.end(sp)
	r.maxSkew = max(r.maxSkew, skew)
	if errors.Is(err, errSkewStrand) {
		// The generator's fault, not an operation of the program: the
		// late nodes keep their dead session, the cluster carries on.
		fmt.Fprintf(os.Stderr, "load generator: %v\n", err)
		r.strands++
		r.excused += time.Since(t0)
		return nil
	}
	if err != nil {
		into.record(0, err)
		if errors.Is(err, errDeadline) {
			return err
		}
		return nil
	}
	first, last := evs[0].at, evs[0].at
	for _, ne := range evs[1:] {
		if ne.at.Before(first) {
			first = ne.at
		}
		if ne.at.After(last) {
			last = ne.at
		}
	}
	into.record(last.Sub(t0), checkDKG(r.gr, r.rs.t, evs, sid%deepEvery == 0))
	if measured {
		r.spreads = append(r.spreads, ms(last.Sub(first)))
	}
	return nil
}

// op issues one request and checks its reply.
func (r *rig) op(ca *caller, into *tally) error {
	in, err := r.next(ca)
	if err != nil {
		return err
	}
	ca.ops++
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sp := r.tr.begin("client.op", 0, ca.ops)
	t0 := time.Now()
	if r.rs.wl.kind == kindSign {
		var sg hybriddkg.Signature
		sg, err = ca.cl.Sign(ctx, keyID, in.message)
		d := time.Since(t0)
		r.tr.end(sp)
		if err == nil {
			err = checkSignature(ca.cl, r.pk, in.message, sg)
		}
		into.record(d, err)
	} else {
		var got hybriddkg.Element
		got, err = ca.cl.Decrypt(ctx, keyID, in.ct)
		d := time.Since(t0)
		r.tr.end(sp)
		if err == nil {
			err = checkPlaintext(got, in.plain)
		}
		into.record(d, err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return errDeadline
	}
	return nil
}

// serve runs the closed loop for d (or until maxOps operations have
// been issued) and returns the merged tally and whether an operation
// hit its deadline.
func (r *rig) serve(d time.Duration, maxOps int) (*tally, bool) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    tally
		timedOut bool
		issued   atomic.Int64
	)
	stop := time.Now().Add(d)
	for _, ca := range r.callers {
		wg.Add(1)
		go func(ca *caller) {
			defer wg.Done()
			var mine tally
			var err error
			for err == nil && time.Now().Before(stop) && (maxOps == 0 || issued.Add(1) <= int64(maxOps)) {
				err = r.op(ca, &mine)
			}
			mu.Lock()
			defer mu.Unlock()
			total.merge(&mine)
			if errors.Is(err, errDeadline) {
				timedOut = true
			} else if err != nil {
				fmt.Fprintf(os.Stderr, "load generator: %v\n", err)
				total.record(0, err)
			}
		}(ca)
	}
	wg.Wait()
	return &total, timedOut
}

// measure runs the workload's operations for the configured time.
func (r *rig) measure() (*tally, error) {
	d := time.Duration(r.rs.seconds * float64(time.Second))
	if r.rs.wl.kind != kindDKG {
		total, timedOut := r.serve(d, r.rs.maxOps)
		if timedOut {
			return total, errDeadline
		}
		return total, nil
	}
	var total tally
	stop := time.Now().Add(d)
	for time.Now().Before(stop) && (r.rs.maxOps == 0 || total.attempted < r.rs.maxOps) {
		if err := r.session(&total, true); err != nil {
			return &total, err
		}
	}
	return &total, nil
}

// runWorkload sets the workload up rs.setups times, measures it once
// on the last cluster, checks every output and tears everything down.
func runWorkload(rs runSpec) (*result, error) {
	gr, err := group.ByName(groupName)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rs.outDir, 0o755); err != nil {
		return nil, err
	}
	goroutinesBefore := runtime.NumGoroutine()
	var tr *tracer
	if rs.traced {
		tr = newTracer()
	}
	var r *rig
	var setupS []float64
	for len(setupS) < rs.setups {
		if r != nil {
			r.close()
		}
		if r, err = setUp(rs, gr, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, r.setupS)
	}
	closed := false
	defer func() {
		if !closed {
			r.close()
		}
	}()

	res := &result{
		Workload:     rs.wl.name,
		Traced:       rs.traced,
		Load:         "one DKG session at a time on all nodes",
		SetupSamples: len(setupS),
	}
	if rs.wl.kind != kindDKG {
		res.Load = fmt.Sprintf("closed loop, %d callers over %d connections to node 1", numCallers, numConns)
	}

	var stopProfile func()
	if rs.traced {
		f, err := os.Create(filepath.Join(rs.outDir, rs.wl.name+".cpu.pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if rs.wl.kind != kindDKG {
		if err := r.prefill(r.prefillFor(rs.seconds)); err != nil {
			return nil, err
		}
	}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	walBefore := dirBytes(r.c.spec.stateDir)
	cpuBefore, _ := rusage()
	stealBefore, jiffiesBefore := hostJiffies()
	before := r.c.counters()
	r.excused = 0 // what the warm-up lost is off the set-up time already
	t0 := time.Now()

	total, merr := r.measure()

	elapsed := (time.Since(t0) - r.excused).Seconds()
	after := r.c.counters()
	stealAfter, jiffiesAfter := hostJiffies()
	cpuAfter, rssMiB := rusage()
	walAfter := dirBytes(r.c.spec.stateDir)
	runtime.ReadMemStats(&memAfter)
	if stopProfile != nil {
		stopProfile()
	}
	if errors.Is(merr, errDeadline) {
		r.c.dumpStats()
	} else if merr != nil {
		return nil, merr
	}

	ok := float64(len(total.latMs))
	res.MeasuredS = elapsed
	res.Attempted = total.attempted
	res.Failed = total.failed
	res.Samples = len(total.latMs)
	res.InputsS = r.inputsS
	res.MaxSkewUs = float64(r.maxSkew) / float64(time.Microsecond)
	res.SkewStrands = r.strands
	res.HostSteal = ratio(stealAfter-stealBefore, jiffiesAfter-jiffiesBefore)
	res.EndToEnd = map[string]float64{
		"setup_s":     median(setupS),
		"op_p50_ms":   median(total.latMs),
		"ops_per_s":   ok / elapsed,
		"op_wire_kib": ratio(float64(after.frameBytes-before.frameBytes)/1024, ok),
	}

	if rs.traced {
		tailMs, tailPct := tail(total.latMs)
		frames := float64(after.frames - before.frames)
		svc := after.svc
		res.PerLayer = map[string]float64{
			"runtime.cpu_s_per_op":              ratio(cpuAfter-cpuBefore, ok),
			"runtime.peak_rss_mib":              rssMiB,
			"runtime.allocs_per_op":             ratio(float64(memAfter.Mallocs-memBefore.Mallocs), ok),
			"transport.frames_per_op":           ratio(frames, ok),
			"transport.msgs_per_frame":          ratio(float64(after.msgs-before.msgs), frames),
			"transport.coalesce_flushes_per_op": ratio(float64(after.flushes-before.flushes), ok),
			"engine.sessions_per_op":            ratio(float64(after.completed1-before.completed1), ok),
			"dataplane.items_per_batch":         ratio(float64(svc.Items-before.svc.Items), float64(svc.Batches-before.svc.Batches)),
			"dataplane.shed_ratio":              ratio(float64(svc.Shed-before.svc.Shed), float64(svc.Requests-before.svc.Requests+svc.Shed-before.svc.Shed)),
			"dataplane.peer_cache_hit_ratio":    ratio(float64(svc.PeerCacheHits-before.svc.PeerCacheHits), float64(svc.PeerItems-before.svc.PeerItems)),
			"store.wal_kib_per_dkg":             ratio(float64(walAfter-walBefore)/1024, ok),
			"facade.serve_ms":                   median(r.c.serveMs),
			"facade.node_spread_ms":             median(r.spreads),
			"client.op_tail_ms":                 tailMs,
			"client.op_tail_pct":                tailPct,
		}
		if err := r.tracedExtras(res.PerLayer); err != nil {
			return nil, err
		}
	}

	r.close()
	closed = true
	if rs.traced {
		// Goroutines wind down asynchronously after Close; give them a
		// bounded moment before calling the remainder a leak.
		leaked := runtime.NumGoroutine() - goroutinesBefore
		for wait := 0; leaked > 0 && wait < 100; wait++ {
			time.Sleep(10 * time.Millisecond)
			leaked = runtime.NumGoroutine() - goroutinesBefore
		}
		res.PerLayer["runtime.goroutines_leaked"] = float64(max(leaked, 0))
		if err := tr.write(filepath.Join(rs.outDir, rs.wl.name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}
	if res.Samples == 0 {
		return res, errors.New("no operation completed")
	}
	return res, nil
}

// tracedExtras adds what only a traced cluster can tell: the series
// scraped from /metrics (store and verify keep no public stats
// surface) and the client hop's own round trip.
func (r *rig) tracedExtras(into map[string]float64) error {
	m, err := r.c.scrapeAll()
	if err != nil {
		return err
	}
	// The store series count from node start, warm-up included, as do
	// the verify ratios; only the per-DKG store figures need a rate,
	// and they are taken over every session the cluster ran.
	sessions := float64(r.nextSID - 1)
	into["store.fsyncs_per_dkg"] = ratio(m["store_fsync_seconds_count"], sessions)
	into["store.fsync_ms_per_dkg"] = ratio(m["store_fsync_seconds_sum"]*1000, sessions)
	into["verify.cache_hit_ratio"] = ratio(m["verify_cache_hits_total"], m["verify_cache_hits_total"]+m["verify_cache_misses_total"])
	into["verify.spec_wasted_ratio"] = ratio(m["verify_speculative_wasted_total"], m["verify_speculative_wasted_total"]+m["verify_speculative_used_total"])

	cl := r.clients
	if len(cl) == 0 {
		c, err := hybriddkg.Dial(r.c.nodes[0].ClientAddr())
		if err != nil {
			return err
		}
		defer c.Close()
		cl = []*hybriddkg.Client{c}
	}
	rtt := make([]float64, 0, 200)
	for i := 0; i < cap(rtt); i++ {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		sp := r.tr.begin("client.keyinfo", 0, uint64(i))
		t0 := time.Now()
		_, err := cl[0].KeyInfo(ctx, keyID)
		d := time.Since(t0)
		r.tr.end(sp)
		cancel()
		if err != nil {
			return fmt.Errorf("key info round trip: %w", err)
		}
		rtt = append(rtt, float64(d)/float64(time.Microsecond))
	}
	into["client.rtt_us"] = median(rtt)
	return nil
}
