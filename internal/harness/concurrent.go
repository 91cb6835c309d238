package harness

import (
	"fmt"
	"sort"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/engine"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/telemetry"
	"hybriddkg/internal/verify"
)

// ConcurrentDKGOptions configures a session-multiplexed cluster run:
// S independent DKG instances (sessions 1..S, τ = session id) share
// one simulated network, one signature directory with a shared
// verification cache, and per-node engines with a bounded worker pool.
type ConcurrentDKGOptions struct {
	// Sessions is S, the number of concurrent DKG instances.
	Sessions int
	N, T, F  int
	Seed     uint64
	// Workers bounds each node's engine (0 = all sessions at once).
	Workers int
	// VerifyWorkers, when > 0, attaches the parallel verification
	// pipeline (see DKGOptions.VerifyWorkers): one verify.Pool and one
	// verdict cache shared by every session of the cluster, per-node
	// speculators on the simulator's send hook, and parallel batch
	// flushes. Deterministic protocol outcomes are preserved.
	VerifyWorkers int
	// Group defaults to group.Test256(); Scheme to Ed25519.
	Group  *group.Group
	Scheme sig.Scheme
	// HashedEcho configures the embedded VSS instances.
	HashedEcho bool
	// DisableBatch turns off the VSS layer's batched point verification.
	DisableBatch bool
	// InitialLeader defaults to 1; TimeoutBase to the dkg default.
	InitialLeader msg.NodeID
	TimeoutBase   int64
	// DisableVerifyCache turns off the shared memoizing verifier (it
	// is on by default — the point of sharing one verifier across
	// sessions).
	DisableVerifyCache bool
	// LingerCompleted keeps completed sessions registered so they
	// still serve help requests; required when recoveries are
	// scheduled near session completion. The default retires
	// completed sessions, so replayed traffic is dropped by the
	// router.
	LingerCompleted bool
	// StaggerStart spaces session submissions by the given virtual
	// time (0 = all sessions submitted at t=0).
	StaggerStart int64
	// Fault injection (node-level: a crash takes down every session
	// hosted on the node, like a process crash in the deployment).
	CrashedFromStart []msg.NodeID
	CrashAt          map[msg.NodeID]int64
	RecoverAt        map[msg.NodeID]int64
	// Byzantine replaces a node's engine with adversarial per-session
	// handlers. The builder receives the network so it can obtain
	// environments for other sessions (cross-session attacks).
	Byzantine map[msg.NodeID]func(net *simnet.Network, node msg.NodeID, sid msg.SessionID) simnet.Handler
	// SessionFilter is the session-aware adversarial scheduler.
	SessionFilter simnet.SessionFilterFunc
	// Simulation bounds.
	DisableAccounting bool
	MaxEvents         int
	// Trace/NoTrace/Metrics: see DKGOptions. EngineMetrics optionally
	// attaches the session-lifecycle instruments, shared by every
	// node's engine (the counters are atomic).
	Trace         *telemetry.Tracer
	NoTrace       bool
	Metrics       *telemetry.ProtocolMetrics
	EngineMetrics *telemetry.EngineMetrics
}

// ConcurrentDKGResult is the outcome of a multi-session run.
type ConcurrentDKGResult struct {
	Opts      ConcurrentDKGOptions
	Net       *simnet.Network
	Stats     simnet.Stats
	Directory *sig.Directory
	// Engines is the per-node session lifecycle state.
	Engines map[msg.NodeID]*engine.Engine
	// Completed maps session -> node -> completion event.
	Completed map[msg.SessionID]map[msg.NodeID]dkg.CompletedEvent
	// VerifyPool is the verification pipeline's worker pool (nil
	// unless VerifyWorkers > 0); Close releases it.
	VerifyPool *verify.Pool
	// Tracer holds the cluster-wide per-session protocol timelines
	// (nil with NoTrace).
	Tracer *telemetry.Tracer
}

// Close releases the verification pool's workers (no-op without one).
func (r *ConcurrentDKGResult) Close() {
	if r.VerifyPool != nil {
		r.VerifyPool.Close()
	}
}

// RunConcurrentDKGs runs S concurrent DKG sessions over an n-node
// simulated cluster with Byzantine threshold t and default options —
// the headline entry point for the session-multiplexed runtime.
func RunConcurrentDKGs(s, n, t int) (*ConcurrentDKGResult, error) {
	return RunConcurrentSessions(ConcurrentDKGOptions{Sessions: s, N: n, T: t, Seed: 1})
}

// RunConcurrentSessions builds the multiplexed cluster and runs every
// session to completion (or the event budget).
func RunConcurrentSessions(opts ConcurrentDKGOptions) (*ConcurrentDKGResult, error) {
	if opts.Sessions < 1 {
		return nil, fmt.Errorf("%w: need at least one session", ErrIncomplete)
	}
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
	if !opts.DisableVerifyCache {
		dir.EnableVerifyCache(0)
	}
	simOpts := simnet.Options{
		Seed:              opts.Seed,
		SessionFilter:     opts.SessionFilter,
		DisableAccounting: opts.DisableAccounting,
	}
	var pool *verify.Pool
	if opts.VerifyWorkers > 0 {
		pool, simOpts.Observer = attachVerifyPipeline(opts.VerifyWorkers, dir)
	}
	net := simnet.New(simOpts)
	tracer := opts.Trace
	if tracer == nil && !opts.NoTrace {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{RingSize: 128})
	}
	res := &ConcurrentDKGResult{
		Opts:       opts,
		Net:        net,
		Directory:  dir,
		Engines:    make(map[msg.NodeID]*engine.Engine, opts.N),
		Completed:  make(map[msg.SessionID]map[msg.NodeID]dkg.CompletedEvent, opts.Sessions),
		VerifyPool: pool,
		Tracer:     tracer,
	}
	for s := 1; s <= opts.Sessions; s++ {
		res.Completed[msg.SessionID(s)] = make(map[msg.NodeID]dkg.CompletedEvent, opts.N)
	}

	byz := make(map[msg.NodeID]bool, len(opts.Byzantine))
	for i := 1; i <= opts.N; i++ {
		id := msg.NodeID(i)
		if mk, isByz := opts.Byzantine[id]; isByz {
			byz[id] = true
			for s := 1; s <= opts.Sessions; s++ {
				sid := msg.SessionID(s)
				if err := net.RegisterSession(id, sid, mk(net, id, sid)); err != nil {
					return nil, err
				}
			}
			continue
		}
		eng, err := engine.New(engine.Config{
			Fabric: engine.NewSimnetFabric(net, id),
			Factory: func(sid msg.SessionID, rt engine.Runtime) (engine.Runner, error) {
				params := dkg.Params{
					Group:         opts.Group,
					N:             opts.N,
					T:             opts.T,
					F:             opts.F,
					HashedEcho:    opts.HashedEcho,
					DisableBatch:  opts.DisableBatch,
					Directory:     dir,
					SignKey:       privs[id],
					InitialLeader: opts.InitialLeader,
					TimeoutBase:   opts.TimeoutBase,
					Metrics:       opts.Metrics,
					Trace:         tracer,
				}
				if pool != nil {
					params.Parallel = pool
				}
				return dkg.NewNode(params, uint64(sid), id, rt, dkg.Options{
					OnCompleted: func(ev dkg.CompletedEvent) {
						res.Completed[sid][id] = ev
					},
				})
			},
			Start: func(sid msg.SessionID, r engine.Runner) error {
				seed := opts.Seed ^ uint64(sid)<<40 ^ uint64(id)<<24 ^ 0xd ^ uint64(id)
				return r.(*dkg.Node).Start(randutil.NewReader(seed))
			},
			MaxActive:       opts.Workers,
			LingerCompleted: opts.LingerCompleted,
			Metrics:         opts.EngineMetrics,
			Trace:           tracer,
		})
		if err != nil {
			return nil, err
		}
		res.Engines[id] = eng
	}

	// Submit sessions in deterministic order, optionally staggered in
	// virtual time so tests can interleave session phases.
	submit := func(s int) {
		for i := 1; i <= opts.N; i++ {
			id := msg.NodeID(i)
			eng, ok := res.Engines[id]
			if !ok || net.Crashed(id) {
				continue
			}
			if err := eng.Submit(msg.SessionID(s)); err != nil {
				panic(fmt.Sprintf("harness: submit session %d to node %d: %v", s, id, err))
			}
		}
	}
	for _, id := range opts.CrashedFromStart {
		net.Crash(id)
	}
	scheduleFaults(net, opts.CrashAt, net.Crash)
	scheduleFaults(net, opts.RecoverAt, net.Recover)
	for s := 1; s <= opts.Sessions; s++ {
		if opts.StaggerStart > 0 {
			s := s
			net.Schedule(int64(s-1)*opts.StaggerStart, func() { submit(s) })
		} else {
			submit(s)
		}
	}

	net.RunUntil(res.allLiveSessionsDone, opts.MaxEvents)
	net.Run(opts.MaxEvents)
	res.Stats = net.Stats()
	return res, nil
}

// allLiveSessionsDone reports whether every engine on a live honest
// node has completed (or failed) all submitted sessions.
func (r *ConcurrentDKGResult) allLiveSessionsDone() bool {
	for id, eng := range r.Engines {
		if r.Net.Crashed(id) {
			continue
		}
		st := eng.Stats()
		if st.Submitted < r.Opts.Sessions || st.Completed+st.Failed < st.Submitted {
			return false
		}
	}
	return true
}

// SessionDone counts honest nodes that completed the session.
func (r *ConcurrentDKGResult) SessionDone(sid msg.SessionID) int {
	return len(r.Completed[sid])
}

// CheckSessionConsistency verifies Definition 4.1's consistency for
// one session: identical Q, commitment and public key across its
// completions; every share valid; t+1 shares interpolating to a
// secret matching the public key.
func (r *ConcurrentDKGResult) CheckSessionConsistency(sid msg.SessionID) error {
	events := r.Completed[sid]
	if len(events) == 0 {
		return fmt.Errorf("%w: session %v never completed%s",
			ErrIncomplete, sid, r.timelineSuffix(sid))
	}
	ids := make([]msg.NodeID, 0, len(events))
	for id := range events {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ref := events[ids[0]]
	pts := make([]poly.Point, 0, r.Opts.T+1)
	for _, id := range ids {
		ev := events[id]
		if ev.Tau != uint64(sid) {
			return fmt.Errorf("%w: session %v event carries τ=%d", ErrInconsistency, sid, ev.Tau)
		}
		if !ref.PublicKey.Equal(ev.PublicKey) {
			return fmt.Errorf("%w: session %v public keys differ", ErrInconsistency, sid)
		}
		if len(ref.Q) != len(ev.Q) {
			return fmt.Errorf("%w: session %v Q sizes differ", ErrInconsistency, sid)
		}
		for i := range ref.Q {
			if ref.Q[i] != ev.Q[i] {
				return fmt.Errorf("%w: session %v Q sets differ", ErrInconsistency, sid)
			}
		}
		if !ev.V.VerifyShare(int64(id), ev.Share) {
			return fmt.Errorf("%w: session %v node %d share invalid", ErrInconsistency, sid, id)
		}
		if len(pts) < r.Opts.T+1 {
			pts = append(pts, poly.Point{X: int64(id), Y: ev.Share})
		}
	}
	if len(pts) < r.Opts.T+1 {
		return fmt.Errorf("%w: session %v has only %d shares%s",
			ErrIncomplete, sid, len(pts), r.timelineSuffix(sid))
	}
	secret, err := poly.Interpolate(r.Opts.Group.Q(), pts, 0)
	if err != nil {
		return err
	}
	if !r.Opts.Group.GExp(secret).Equal(ref.PublicKey) {
		return fmt.Errorf("%w: session %v interpolated secret mismatch", ErrInconsistency, sid)
	}
	return nil
}

// CheckAllSessions verifies every session's internal consistency and
// that sessions produced pairwise distinct public keys (instances must
// not bleed into each other).
func (r *ConcurrentDKGResult) CheckAllSessions() error {
	for s := 1; s <= r.Opts.Sessions; s++ {
		if err := r.CheckSessionConsistency(msg.SessionID(s)); err != nil {
			return err
		}
	}
	for a := 1; a <= r.Opts.Sessions; a++ {
		for b := a + 1; b <= r.Opts.Sessions; b++ {
			evA, evB := r.anyCompletion(msg.SessionID(a)), r.anyCompletion(msg.SessionID(b))
			if evA.PublicKey.Equal(evB.PublicKey) {
				return fmt.Errorf("%w: sessions %d and %d share a public key", ErrInconsistency, a, b)
			}
		}
	}
	return nil
}

// timelineSuffix renders one session's traced protocol timeline for
// incompleteness diagnostics. Empty when tracing is disabled.
func (r *ConcurrentDKGResult) timelineSuffix(sid msg.SessionID) string {
	if r.Tracer == nil {
		return ""
	}
	return "\n" + r.Tracer.FormatTimeline(uint64(sid), 20)
}

func (r *ConcurrentDKGResult) anyCompletion(sid msg.SessionID) dkg.CompletedEvent {
	ids := make([]msg.NodeID, 0, len(r.Completed[sid]))
	for id := range r.Completed[sid] {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return r.Completed[sid][ids[0]]
}
