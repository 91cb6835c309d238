package harness

import (
	"fmt"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/proactive"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/store"
	"hybriddkg/internal/vss"
)

// Kill-and-restart scenarios: unlike simnet.Crash/Recover — where the
// node object survives and recovery only replays the help protocol —
// these scenarios model a SIGKILLed OS process. The victim's in-memory
// state is discarded entirely; everything it knows after the restart
// comes from its durable store (write-ahead frame log + optional
// snapshots, via internal/store) plus the protocol's own recover/help
// machinery. This is the adversary the ROADMAP's long-lived services
// face: the paper's §3 crash-recovery model held across process
// lifetimes.

// RestartOptions configures a kill-and-restart DKG scenario.
type RestartOptions struct {
	// DKG shapes the cluster (fault fields may add concurrent
	// adversaries: a crashed leader forces the restart to interleave
	// with a leader change, etc.).
	DKG DKGOptions
	// Victim is the node that gets SIGKILLed and restarted.
	Victim msg.NodeID
	// CrashAt and RestartAt are virtual times of the kill and of the
	// rebuild-from-disk.
	CrashAt, RestartAt int64
	// SnapshotEvery snapshots the victim's state every k delivered
	// frames; 0 disables snapshots entirely, so the restore replays
	// the whole WAL into a fresh node.
	SnapshotEvery int
	// FreezeSnapshotsAfter stops snapshotting after the k-th snapshot
	// (0 = never freeze): the restore then starts from a stale
	// snapshot and replays a long WAL tail.
	FreezeSnapshotsAfter int
	// StateDir is the durable state directory (tests pass
	// t.TempDir()).
	StateDir string
}

// RestartResult reports a kill-and-restart run.
type RestartResult struct {
	*DKGResult
	// RestoredNode is the post-restart incarnation of the victim.
	RestoredNode *dkg.Node
	// UsedSnapshot reports whether the restore started from a
	// snapshot (false = whole-WAL replay); SnapshotSeq is the WAL
	// sequence the snapshot covered.
	UsedSnapshot bool
	SnapshotSeq  uint64
	// ReplayedFrames counts WAL frames re-fed after the snapshot.
	ReplayedFrames int
	// JournaledFrames is the WAL length at restore time.
	JournaledFrames uint64
}

// sessionCodec builds the wire codec for DKG traffic.
func sessionCodec(gr *group.Group) (*msg.Codec, error) {
	codec := msg.NewCodec()
	if err := vss.RegisterCodec(codec, gr); err != nil {
		return nil, err
	}
	if err := dkg.RegisterCodec(codec); err != nil {
		return nil, err
	}
	return codec, nil
}

// journalHandler wraps the victim's handler: every delivered frame is
// journaled (write-ahead) before dispatch, and the node state is
// snapshotted on the configured cadence — the same discipline the
// session engine applies in deployment.
type journalHandler struct {
	st          *store.Store
	sid         msg.SessionID
	victim      msg.NodeID
	every       int
	freezeAfter int

	inner  simnet.Handler
	node   *dkg.Node
	frames int
	snaps  int
	errs   []error
}

func (h *journalHandler) HandleMessage(from msg.NodeID, body msg.Body) {
	if payload, err := body.MarshalBinary(); err == nil {
		env := msg.Envelope{From: from, To: h.victim, Session: h.sid, Type: body.MsgType(), Payload: payload}
		if err := h.st.AppendFrame(h.sid, env); err != nil {
			h.errs = append(h.errs, err)
		}
	} else {
		h.errs = append(h.errs, err)
	}
	h.inner.HandleMessage(from, body)
	h.frames++
	if h.every > 0 && h.frames%h.every == 0 && (h.freezeAfter == 0 || h.snaps < h.freezeAfter) {
		state, err := h.node.MarshalState()
		if err == nil {
			err = h.st.SaveSnapshot(h.sid, state)
		}
		if err != nil {
			h.errs = append(h.errs, err)
		} else {
			h.snaps++
		}
	}
}

func (h *journalHandler) HandleTimer(id uint64) { h.inner.HandleTimer(id) }
func (h *journalHandler) HandleRecover()        { h.inner.HandleRecover() }

// swap installs the restored node behind the wrapper.
func (h *journalHandler) swap(node *dkg.Node) {
	h.node = node
	h.inner = &dkgAdapter{node: node}
}

// restoreFromStore rebuilds a dkg node purely from durable state:
// latest snapshot (if any) + WAL tail replay. The simulator keeps the
// victim crashed during replay, so re-emitted sends are suppressed
// exactly like a real process replaying before it rejoins the network.
func restoreFromStore(st *store.Store, codec *msg.Codec, sid msg.SessionID, params dkg.Params,
	tau uint64, victim msg.NodeID, runtime dkg.Runtime, ropts dkg.Options) (*dkg.Node, *RestartResult, error) {

	rep := &RestartResult{}
	snap, seq, err := st.LoadSnapshot(sid)
	if err != nil {
		// Corrupt snapshot: fall back to whole-WAL replay.
		snap, seq = nil, 0
	}
	var nd *dkg.Node
	if snap != nil {
		nd, err = dkg.RestoreNode(params, tau, victim, runtime, ropts, codec, snap)
		if err != nil {
			nd, seq = nil, 0
		} else {
			rep.UsedSnapshot = true
			rep.SnapshotSeq = seq
		}
	}
	if nd == nil {
		nd, err = dkg.NewNode(params, tau, victim, runtime, ropts)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: rebuild victim: %w", err)
		}
	}
	err = st.Replay(sid, seq, func(env msg.Envelope) error {
		body, derr := codec.Open(env)
		if derr != nil {
			return derr
		}
		nd.Handle(env.From, body)
		rep.ReplayedFrames++
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("harness: replay victim WAL: %w", err)
	}
	if rep.JournaledFrames, err = st.Seq(sid); err != nil {
		return nil, nil, err
	}
	return nd, rep, nil
}

func dkgParamsOf(opts DKGOptions, dir *sig.Directory, priv []byte) dkg.Params {
	return dkg.Params{
		Group:          opts.Group,
		N:              opts.N,
		T:              opts.T,
		F:              opts.F,
		HashedEcho:     opts.HashedEcho,
		DedupDealings:  opts.DedupDealings,
		CompressedWire: opts.CompressedWire,
		DisableBatch:   opts.DisableBatch,
		Certificates:   opts.Certificates,
		Directory:      dir,
		SignKey:        priv,
		InitialLeader:  opts.InitialLeader,
		TimeoutBase:    opts.TimeoutBase,
		QSize:          opts.QSize,
	}
}

// RunRestartDKG runs a fresh-key DKG in which the victim is SIGKILLed
// at CrashAt and rebuilt from its durable state at RestartAt, then
// drives the network to completion.
func RunRestartDKG(opts RestartOptions) (*RestartResult, error) {
	if opts.StateDir == "" || opts.Victim == 0 {
		return nil, fmt.Errorf("harness: restart needs StateDir and Victim")
	}
	d := opts.DKG
	res, err := SetupDKG(&d)
	if err != nil {
		return nil, err
	}
	codec, err := sessionCodec(d.Group)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(opts.StateDir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	out := &RestartResult{DKGResult: res}
	victim := opts.Victim
	const tau = 1
	sid := msg.SessionID(tau)
	jh := &journalHandler{
		st: st, sid: sid, victim: victim,
		every: opts.SnapshotEvery, freezeAfter: opts.FreezeSnapshotsAfter,
		inner: &dkgAdapter{node: res.Nodes[victim]}, node: res.Nodes[victim],
	}
	res.Net.Register(victim, jh)

	noDeal := make(map[msg.NodeID]bool, len(d.NoDeal))
	for _, id := range d.NoDeal {
		noDeal[id] = true
	}
	for i := 1; i <= d.N; i++ {
		id := msg.NodeID(i)
		node, ok := res.Nodes[id]
		if !ok || res.Net.Crashed(id) || noDeal[id] {
			continue
		}
		if err := node.Start(randutil.NewReader(d.Seed ^ uint64(id)<<24 ^ 0xd ^ uint64(id))); err != nil {
			return nil, fmt.Errorf("harness: start node %d: %w", id, err)
		}
	}

	res.Net.Schedule(opts.CrashAt, func() { res.Net.Crash(victim) })
	var restoreErr error
	res.Net.Schedule(opts.RestartAt, func() {
		params := dkgParamsOf(d, res.Directory, res.Privs[victim])
		nd, rep, err := restoreFromStore(st, codec, sid, params, tau, victim, res.Net.Env(victim), res.nodeOptions(victim))
		if err != nil {
			restoreErr = err
			return
		}
		out.RestoredNode = nd
		out.UsedSnapshot, out.SnapshotSeq = rep.UsedSnapshot, rep.SnapshotSeq
		out.ReplayedFrames, out.JournaledFrames = rep.ReplayedFrames, rep.JournaledFrames
		res.Nodes[victim] = nd
		jh.swap(nd)
		res.Net.Recover(victim) // rejoin: un-crash + protocol recover input
	})

	res.Net.RunUntil(func() bool { return res.allHonestLiveDone() }, d.MaxEvents)
	res.Net.Run(d.MaxEvents)
	res.Stats = res.Net.Stats()
	if restoreErr != nil {
		return nil, restoreErr
	}
	if len(jh.errs) > 0 {
		return nil, fmt.Errorf("harness: journaling errors: %v", jh.errs[0])
	}
	return out, nil
}

// RunRestartRenewal runs a clean base DKG, then a §5.2 share-renewal
// session (tau 2, Lagrange combiner, constant-term linkage validation)
// in which the victim is SIGKILLed mid-renewal and rebuilt from its
// durable state. The renewal must complete with the public key
// unchanged and fresh shares.
func RunRestartRenewal(opts RestartOptions) (*RestartResult, *commit.Vector, error) {
	if opts.StateDir == "" || opts.Victim == 0 {
		return nil, nil, fmt.Errorf("harness: restart needs StateDir and Victim")
	}
	base := opts.DKG
	baseRes, err := RunDKG(base)
	if err != nil {
		return nil, nil, err
	}
	if baseRes.HonestDone() != base.N {
		return nil, nil, fmt.Errorf("%w: base DKG incomplete", ErrIncomplete)
	}
	base = baseRes.Opts // defaults (group, scheme, …) resolved by the base run
	prevVec := baseRes.Completed[1].V

	codec, err := sessionCodec(base.Group)
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(opts.StateDir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()

	// A fresh network for the renewal phase: same keys, tau = 2.
	net := simnet.New(simnet.Options{Seed: base.Seed ^ 0x5eed, DisableAccounting: base.DisableAccounting})
	res := &DKGResult{
		Opts:      base,
		Nodes:     make(map[msg.NodeID]*dkg.Node, base.N),
		Completed: make(map[msg.NodeID]dkg.CompletedEvent, base.N),
		Net:       net,
		Directory: baseRes.Directory,
		Privs:     baseRes.Privs,
	}
	const tau = 2
	sid := msg.SessionID(tau)
	renewalOpts := func(id msg.NodeID) dkg.Options {
		return dkg.Options{
			ShareSource: baseRes.Completed[id].Share,
			ValidateDealing: func(ev vss.SharedEvent) bool {
				return ev.C.PublicKey().Equal(prevVec.Eval(int64(ev.Session.Dealer)))
			},
			Combine:     proactive.LagrangeCombiner(base.Group, prevVec, nil),
			OnCompleted: func(ev dkg.CompletedEvent) { res.Completed[id] = ev },
		}
	}
	for i := 1; i <= base.N; i++ {
		id := msg.NodeID(i)
		params := dkgParamsOf(base, baseRes.Directory, baseRes.Privs[id])
		node, err := dkg.NewNode(params, tau, id, net.Env(id), renewalOpts(id))
		if err != nil {
			return nil, nil, err
		}
		res.Nodes[id] = node
		net.Register(id, &dkgAdapter{node: node})
	}
	victim := opts.Victim
	out := &RestartResult{DKGResult: res}
	jh := &journalHandler{
		st: st, sid: sid, victim: victim,
		every: opts.SnapshotEvery, freezeAfter: opts.FreezeSnapshotsAfter,
		inner: &dkgAdapter{node: res.Nodes[victim]}, node: res.Nodes[victim],
	}
	net.Register(victim, jh)

	for i := 1; i <= base.N; i++ {
		id := msg.NodeID(i)
		if err := res.Nodes[id].Start(randutil.NewReader(base.Seed ^ uint64(id)<<13 ^ 0x9e37)); err != nil {
			return nil, nil, fmt.Errorf("harness: start renewal node %d: %w", id, err)
		}
		// §5.2: retransmitted sends carry only commitments.
		res.Nodes[id].VSSNode(id).EraseDealingSecrets()
	}

	net.Schedule(opts.CrashAt, func() { net.Crash(victim) })
	var restoreErr error
	net.Schedule(opts.RestartAt, func() {
		params := dkgParamsOf(base, baseRes.Directory, baseRes.Privs[victim])
		nd, rep, err := restoreFromStore(st, codec, sid, params, tau, victim, net.Env(victim), renewalOpts(victim))
		if err != nil {
			restoreErr = err
			return
		}
		out.RestoredNode = nd
		out.UsedSnapshot, out.SnapshotSeq = rep.UsedSnapshot, rep.SnapshotSeq
		out.ReplayedFrames, out.JournaledFrames = rep.ReplayedFrames, rep.JournaledFrames
		res.Nodes[victim] = nd
		jh.swap(nd)
		net.Recover(victim)
	})

	net.RunUntil(func() bool { return res.allHonestLiveDone() }, base.MaxEvents)
	net.Run(base.MaxEvents)
	res.Stats = net.Stats()
	if restoreErr != nil {
		return nil, nil, restoreErr
	}
	if len(jh.errs) > 0 {
		return nil, nil, fmt.Errorf("harness: journaling errors: %v", jh.errs[0])
	}
	return out, prevVec, nil
}

// RenewedSecretMatches checks that t+1 renewed shares still
// interpolate to a secret matching the (unchanged) public key.
func (r *RestartResult) RenewedSecretMatches(prevVec *commit.Vector) error {
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
		return ErrIncomplete
	}
	secret, err := poly.Interpolate(r.Opts.Group.Q(), pts, 0)
	if err != nil {
		return err
	}
	if !r.Opts.Group.GExp(secret).Equal(prevVec.PublicKey()) {
		return fmt.Errorf("%w: renewed secret does not match the previous public key", ErrInconsistency)
	}
	return nil
}
