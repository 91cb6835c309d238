package harness

import (
	"fmt"
	"math/big"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/telemetry"
	"hybriddkg/internal/verify"
)

// DKGOptions configures a DKG cluster run.
type DKGOptions struct {
	N, T, F int
	Seed    uint64
	// Group defaults to group.Test256().
	Group *group.Group
	// HashedEcho configures the embedded VSS instances.
	HashedEcho bool
	// DedupDealings enables digest-referenced dealings with pull-based
	// matrix fetch in the embedded VSS instances.
	DedupDealings bool
	// CompressedWire selects the wire-format-v2 commitment encoding on
	// every matrix the cluster emits.
	CompressedWire bool
	// Coalesce enables the simulator's frame-coalescing accounting
	// model: consecutive same-(src,dst,session) envelopes within the
	// coalescing window are billed as one batch frame.
	Coalesce bool
	// DisableBatch turns off the VSS layer's batched point verification.
	DisableBatch bool
	// Certificates enables relay-assembled quorum certificates with
	// committee-sampled signers in both the DKG and embedded VSS
	// layers (subquadratic echo/ready phases).
	Certificates bool
	// VerifyWorkers, when > 0, attaches the parallel verification
	// pipeline: a verify.Pool with that many workers, a shared verdict
	// cache, and per-node speculators fed from the simulator's send
	// hook — so expensive checks run on worker goroutines while the
	// (still deterministic) simulation loop advances. Protocol
	// behaviour is bit-identical to VerifyWorkers == 0.
	VerifyWorkers int
	// QSize is the number of sharings the agreed set holds (0 means
	// t+1): dkg.Params.QSize.
	QSize int
	// InitialLeader defaults to 1.
	InitialLeader msg.NodeID
	// TimeoutBase defaults to the dkg package default.
	TimeoutBase int64
	// Scheme defaults to Ed25519.
	Scheme sig.Scheme
	// NoDeal lists honest nodes that participate but never deal a
	// sharing (their VSS instance stays idle).
	NoDeal []msg.NodeID
	// Fault injection (same semantics as VSSOptions).
	CrashedFromStart []msg.NodeID
	CrashAt          map[msg.NodeID]int64
	RecoverAt        map[msg.NodeID]int64
	Byzantine        map[msg.NodeID]func(env *simnet.Env) simnet.Handler
	Filter           simnet.FilterFunc
	// SessionFilter is the session-aware adversary hook, consulted in
	// addition to Filter (the chaos lab's fault models install their
	// shapers here).
	SessionFilter simnet.SessionFilterFunc
	// TuneNet, when set, may adjust the assembled simnet options
	// (delay bounds, event hooks, coalescing windows) just before the
	// network is built — the scenario lab's seam for wiring
	// deterministic trace hashing and model-controlled latency.
	TuneNet func(*simnet.Options)
	// Simulation bounds.
	DisableAccounting bool
	MaxEvents         int
	// Trace overrides the run's protocol event tracer. By default the
	// harness records a bounded per-session event timeline so scenario
	// failures can print what the protocol actually did instead of a
	// bare incompleteness error; NoTrace turns that off for perf-pure
	// benchmark legs. Metrics optionally attaches the protocol
	// instrument bundle (telemetry-on benchmark legs).
	Trace   *telemetry.Tracer
	NoTrace bool
	Metrics *telemetry.ProtocolMetrics
}

// DKGResult is the outcome of a cluster run.
type DKGResult struct {
	Opts      DKGOptions
	Nodes     map[msg.NodeID]*dkg.Node
	Completed map[msg.NodeID]dkg.CompletedEvent
	Net       *simnet.Network
	Stats     simnet.Stats
	Directory *sig.Directory
	Privs     map[msg.NodeID][]byte
	// VerifyPool is the speculative-verification pool (nil unless
	// VerifyWorkers > 0). Callers that keep driving the cluster after
	// RunDKG (renewal, addition) may keep using it; Close releases its
	// goroutines.
	VerifyPool *verify.Pool
	// Tracer holds the cluster-wide protocol event timeline (nil with
	// NoTrace).
	Tracer *telemetry.Tracer
}

// Close releases the verification pool's worker goroutines (no-op
// when the pipeline is off). Safe to call more than once.
func (r *DKGResult) Close() {
	if r.VerifyPool != nil {
		r.VerifyPool.Close()
	}
}

// attachVerifyPipeline builds the pool/speculator stage shared by the
// single-run and concurrent harnesses: one pool and one speculator
// over the cluster's shared directory, fed from the simulator's
// send-time observer.
func attachVerifyPipeline(workers int, dir *sig.Directory) (*verify.Pool, func(to msg.NodeID, sid msg.SessionID, from msg.NodeID, body msg.Body)) {
	pool := verify.NewPool(workers)
	spec := verify.NewSpeculator(pool, dir)
	return pool, func(_ msg.NodeID, _ msg.SessionID, from msg.NodeID, body msg.Body) {
		spec.Observe(from, body)
	}
}

// dkgAdapter adapts dkg.Node to simnet.Handler.
type dkgAdapter struct {
	node *dkg.Node
}

func (a *dkgAdapter) HandleMessage(from msg.NodeID, body msg.Body) { a.node.Handle(from, body) }
func (a *dkgAdapter) HandleTimer(id uint64)                        { a.node.HandleTimer(id) }
func (a *dkgAdapter) HandleRecover()                               { a.node.HandleRecover() }

// SetupDKG constructs the cluster without starting any dealing.
func SetupDKG(opts *DKGOptions) (*DKGResult, error) {
	if opts.Group == nil {
		opts.Group = group.Test256()
	}
	if opts.Scheme == nil {
		opts.Scheme = sig.Ed25519{}
	}
	dir, privs, err := BuildDirectory(opts.Scheme, opts.N, opts.Seed)
	if err != nil {
		return nil, err
	}
	simOpts := simnet.Options{
		Seed:              opts.Seed,
		Filter:            opts.Filter,
		SessionFilter:     opts.SessionFilter,
		DisableAccounting: opts.DisableAccounting,
		Coalesce:          opts.Coalesce,
	}
	var pool *verify.Pool
	if opts.VerifyWorkers > 0 {
		dir.EnableVerifyCache(0)
		pool, simOpts.Observer = attachVerifyPipeline(opts.VerifyWorkers, dir)
	}
	if opts.TuneNet != nil {
		opts.TuneNet(&simOpts)
	}
	net := simnet.New(simOpts)
	tracer := opts.Trace
	if tracer == nil && !opts.NoTrace {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{RingSize: 128})
	}
	res := &DKGResult{
		Opts:       *opts,
		Nodes:      make(map[msg.NodeID]*dkg.Node, opts.N),
		Completed:  make(map[msg.NodeID]dkg.CompletedEvent, opts.N),
		Net:        net,
		Directory:  dir,
		Privs:      privs,
		VerifyPool: pool,
		Tracer:     tracer,
	}
	for i := 1; i <= opts.N; i++ {
		id := msg.NodeID(i)
		env := net.Env(id)
		if mk, byz := opts.Byzantine[id]; byz {
			net.Register(id, mk(env))
			continue
		}
		params := dkgParamsOf(*opts, dir, privs[id])
		params.Metrics, params.Trace = opts.Metrics, tracer
		if pool != nil {
			params.Parallel = pool
		}
		node, err := dkg.NewNode(params, 1, id, env, res.nodeOptions(id))
		if err != nil {
			return nil, err
		}
		res.Nodes[id] = node
		net.Register(id, &dkgAdapter{node: node})
	}
	for _, id := range opts.CrashedFromStart {
		net.Crash(id)
	}
	scheduleFaults(net, opts.CrashAt, net.Crash)
	scheduleFaults(net, opts.RecoverAt, net.Recover)
	return res, nil
}

// nodeOptions returns the per-session options of honest node id, for
// its first incarnation and for any rebuilt from durable state.
func (r *DKGResult) nodeOptions(id msg.NodeID) dkg.Options {
	return dkg.Options{
		OnCompleted: func(ev dkg.CompletedEvent) { r.Completed[id] = ev },
	}
}

// RunDKG builds the cluster, starts every live honest dealer and runs
// to completion (or the event budget).
func RunDKG(opts DKGOptions) (*DKGResult, error) {
	res, err := SetupDKG(&opts)
	if err != nil {
		return nil, err
	}
	if err := res.StartDealers(); err != nil {
		return nil, err
	}
	res.RunToCompletion(opts.MaxEvents)
	return res, nil
}

// StartDealers starts every live honest dealer (skipping NoDeal
// participants). Split from RunDKG so scenario drivers can hook fault
// schedules and shapers between setup and the first dealt sharing.
func (r *DKGResult) StartDealers() error {
	noDeal := make(map[msg.NodeID]bool, len(r.Opts.NoDeal))
	for _, id := range r.Opts.NoDeal {
		noDeal[id] = true
	}
	// Iterate in index order: map order would perturb the event
	// schedule and break run determinism.
	for i := 1; i <= r.Opts.N; i++ {
		id := msg.NodeID(i)
		node, ok := r.Nodes[id]
		if !ok || r.Net.Crashed(id) || noDeal[id] {
			continue
		}
		if err := node.Start(randutil.NewReader(r.Opts.Seed ^ uint64(id)<<24 ^ 0xd ^ uint64(id))); err != nil {
			return fmt.Errorf("harness: start node %d: %w", id, err)
		}
	}
	return nil
}

// RunToCompletion drives the simulation until every live honest node
// finishes (then drains stragglers), each leg bounded by maxEvents,
// and snapshots the network stats into r.Stats.
func (r *DKGResult) RunToCompletion(maxEvents int) {
	r.Net.RunUntil(func() bool { return r.allHonestLiveDone() }, maxEvents)
	r.Net.Run(maxEvents)
	r.Stats = r.Net.Stats()
}

func (r *DKGResult) allHonestLiveDone() bool {
	for id, node := range r.Nodes {
		if r.Net.Crashed(id) {
			continue
		}
		if !node.Done() {
			return false
		}
	}
	return true
}

// HonestDone counts honest nodes that completed the DKG.
func (r *DKGResult) HonestDone() int {
	done := 0
	for _, node := range r.Nodes {
		if node.Done() {
			done++
		}
	}
	return done
}

// MaxLeaderChanges returns the largest leader-change count any honest
// node observed.
func (r *DKGResult) MaxLeaderChanges() int {
	maxLC := 0
	for _, node := range r.Nodes {
		if lc := node.LeaderChanges(); lc > maxLC {
			maxLC = lc
		}
	}
	return maxLC
}

// CheckConsistency verifies Definition 4.1's consistency across all
// completed honest nodes: identical Q, commitment and public key; every
// share valid against the joint commitment; any t+1 shares
// interpolating to a secret matching the public key.
func (r *DKGResult) CheckConsistency() error {
	var ref *dkg.CompletedEvent
	pts := make([]poly.Point, 0, r.Opts.T+1)
	for id, node := range r.Nodes {
		if !node.Done() {
			continue
		}
		ev := r.Completed[id]
		if ref == nil {
			ref = &ev
		} else {
			// Renewal-style combinations carry the vector commitment alone.
			if !ref.V.Equal(ev.V) || (ref.C != nil && ev.C != nil && ref.C.Hash() != ev.C.Hash()) {
				return fmt.Errorf("%w: different joint commitments", ErrInconsistency)
			}
			if len(ref.Q) != len(ev.Q) {
				return fmt.Errorf("%w: different Q sizes", ErrInconsistency)
			}
			for i := range ref.Q {
				if ref.Q[i] != ev.Q[i] {
					return fmt.Errorf("%w: different Q sets", ErrInconsistency)
				}
			}
		}
		if !ev.V.VerifyShare(int64(id), ev.Share) {
			return fmt.Errorf("%w: node %d share invalid", ErrInconsistency, id)
		}
		if len(pts) < r.Opts.T+1 {
			pts = append(pts, poly.Point{X: int64(id), Y: ev.Share})
		}
	}
	if ref == nil {
		return fmt.Errorf("%w: no node completed%s", ErrIncomplete, r.timelineSuffix())
	}
	if len(pts) < r.Opts.T+1 {
		return fmt.Errorf("%w: only %d shares%s", ErrIncomplete, len(pts), r.timelineSuffix())
	}
	secret, err := poly.Interpolate(r.Opts.Group.Q(), pts, 0)
	if err != nil {
		return err
	}
	if !r.Opts.Group.GExp(secret).Equal(ref.V.PublicKey()) {
		return fmt.Errorf("%w: interpolated secret does not match public key", ErrInconsistency)
	}
	return nil
}

// timelineSuffix renders the run's traced protocol timeline (the
// single-run harness always uses τ=1) for incompleteness diagnostics.
// Empty when tracing is disabled.
func (r *DKGResult) timelineSuffix() string {
	if r.Tracer == nil {
		return ""
	}
	return "\n" + r.Tracer.FormatTimeline(1, 20)
}

// Secret reconstructs the joint secret from t+1 honest shares (test
// oracle only — real deployments never do this).
func (r *DKGResult) Secret() (*big.Int, error) {
	pts := make([]poly.Point, 0, r.Opts.T+1)
	for id, node := range r.Nodes {
		if !node.Done() {
			continue
		}
		pts = append(pts, poly.Point{X: int64(id), Y: r.Completed[id].Share})
		if len(pts) == r.Opts.T+1 {
			break
		}
	}
	if len(pts) < r.Opts.T+1 {
		return nil, ErrIncomplete
	}
	return poly.Interpolate(r.Opts.Group.Q(), pts, 0)
}
