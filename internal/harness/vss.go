// Package harness wires protocol state machines onto the simulated
// network and runs complete protocol executions. It is the shared
// engine behind the test suites, the complexity benchmarks
// (bench_test.go) and the experiment driver (cmd/dkgsim): one
// implementation of "build a cluster, inject faults, run to
// completion, collect the books".
package harness

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/vss"
)

// Errors returned by harness runs.
var (
	ErrIncomplete    = errors.New("harness: protocol did not complete")
	ErrInconsistency = errors.New("harness: consistency violated")
)

// VSSOptions configures a HybridVSS cluster run.
type VSSOptions struct {
	N, T, F int
	Seed    uint64
	// Group defaults to group.Test256().
	Group *group.Group
	// Secret defaults to a pseudorandom scalar derived from Seed.
	Secret *big.Int
	// HashedEcho enables the O(κn³) commitment-hash optimisation.
	HashedEcho bool
	// DedupDealings enables digest-referenced dealings with pull-based
	// matrix fetch.
	DedupDealings bool
	// CompressedWire selects the wire-format-v2 commitment encoding.
	CompressedWire bool
	// DisableBatch turns off batched point verification (on by default).
	DisableBatch bool
	// Extended enables signed readies (uses Ed25519 keys).
	Extended bool
	// DMax is the d(κ) crash budget (defaults to N).
	DMax int
	// CrashedFromStart lists nodes that are down for the whole run.
	CrashedFromStart []msg.NodeID
	// CrashAt schedules mid-run crashes: node -> virtual time.
	CrashAt map[msg.NodeID]int64
	// RecoverAt schedules recoveries: node -> virtual time.
	RecoverAt map[msg.NodeID]int64
	// Byzantine assigns adversarial behaviours to dealer/nodes.
	// The map value constructs a simnet.Handler given the node's env.
	Byzantine map[msg.NodeID]func(env *simnet.Env) simnet.Handler
	// NetOptions overrides pieces of the simnet configuration
	// (Seed/Filter/accounting are merged in).
	Filter            simnet.FilterFunc
	DisableAccounting bool
	// MaxEvents bounds the run (0 = until quiescent).
	MaxEvents int
}

// VSSResult is what a cluster run produces.
type VSSResult struct {
	Opts    VSSOptions
	Secret  *big.Int
	Session vss.SessionID
	Nodes   map[msg.NodeID]*vss.Node
	Shared  map[msg.NodeID]vss.SharedEvent
	Stats   simnet.Stats
	Net     *simnet.Network
	// Directory is set in Extended mode.
	Directory *sig.Directory
}

// nodeAdapter adapts a vss.Node to the simnet.Handler interface.
type nodeAdapter struct {
	node *vss.Node
}

func (a *nodeAdapter) HandleMessage(from msg.NodeID, body msg.Body) { a.node.Handle(from, body) }
func (a *nodeAdapter) HandleTimer(uint64)                           {}
func (a *nodeAdapter) HandleRecover()                               { a.node.StartRecover() }

// RunVSS builds an n-node HybridVSS cluster for session (P_1, 1),
// injects the configured faults, deals the secret and runs the
// network until every honest live node completes (or the event budget
// is exhausted). It never asserts — callers inspect the result.
func RunVSS(opts VSSOptions) (*VSSResult, error) {
	res, err := SetupVSS(&opts)
	if err != nil {
		return nil, err
	}
	dealer := res.Nodes[res.Session.Dealer]
	if dealer != nil {
		if err := dealer.ShareSecret(res.Secret, randutil.NewReader(opts.Seed^0xdeadbeef)); err != nil {
			return nil, fmt.Errorf("harness: deal: %w", err)
		}
	}
	res.Net.RunUntil(func() bool { return res.allHonestLiveDone() }, opts.MaxEvents)
	res.Net.Run(opts.MaxEvents) // drain stragglers deterministically
	res.Stats = res.Net.Stats()
	return res, nil
}

// SetupVSS constructs the cluster without dealing, for callers that
// drive the run themselves (crash-timing experiments).
func SetupVSS(opts *VSSOptions) (*VSSResult, error) {
	applyVSSDefaults(opts)
	params := vss.Params{
		Group:          opts.Group,
		N:              opts.N,
		T:              opts.T,
		F:              opts.F,
		DMax:           opts.DMax,
		HashedEcho:     opts.HashedEcho,
		DedupDealings:  opts.DedupDealings,
		CompressedWire: opts.CompressedWire,
		DisableBatch:   opts.DisableBatch,
		Extended:       opts.Extended,
	}
	session := vss.SessionID{Dealer: 1, Tau: 1}

	net := simnet.New(simnet.Options{
		Seed:              opts.Seed,
		Filter:            opts.Filter,
		DisableAccounting: opts.DisableAccounting,
	})
	res := &VSSResult{
		Opts:    *opts,
		Secret:  opts.Secret,
		Session: session,
		Nodes:   make(map[msg.NodeID]*vss.Node, opts.N),
		Shared:  make(map[msg.NodeID]vss.SharedEvent, opts.N),
		Net:     net,
	}

	var keys map[msg.NodeID][]byte
	if opts.Extended {
		dir, privs, err := BuildDirectory(sig.Ed25519{}, opts.N, opts.Seed)
		if err != nil {
			return nil, err
		}
		res.Directory = dir
		keys = privs
	}

	for i := 1; i <= opts.N; i++ {
		id := msg.NodeID(i)
		env := net.Env(id)
		if mk, byz := opts.Byzantine[id]; byz {
			net.Register(id, mk(env))
			continue
		}
		p := params
		if opts.Extended {
			p.Directory = res.Directory
			p.SignKey = keys[id]
		}
		node, err := vss.NewNode(p, session, id, env, vss.Options{
			OnShared: func(ev vss.SharedEvent) { res.Shared[id] = ev },
		})
		if err != nil {
			return nil, err
		}
		res.Nodes[id] = node
		net.Register(id, &nodeAdapter{node: node})
	}

	for _, id := range opts.CrashedFromStart {
		net.Crash(id)
	}
	scheduleFaults(net, opts.CrashAt, net.Crash)
	scheduleFaults(net, opts.RecoverAt, net.Recover)
	return res, nil
}

// scheduleFaults registers crash/recover events in deterministic
// (node-index) order so map iteration cannot perturb the event
// sequence numbering.
func scheduleFaults(net *simnet.Network, at map[msg.NodeID]int64, fn func(msg.NodeID)) {
	ids := make([]msg.NodeID, 0, len(at))
	for id := range at {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		node := id
		net.Schedule(at[id], func() { fn(node) })
	}
}

func applyVSSDefaults(opts *VSSOptions) {
	if opts.Group == nil {
		opts.Group = group.Test256()
	}
	if opts.DMax == 0 {
		opts.DMax = opts.N
	}
	if opts.Secret == nil {
		s, err := opts.Group.RandScalar(randutil.NewReader(opts.Seed ^ 0x5ec2e7))
		if err != nil {
			s = big.NewInt(42)
		}
		opts.Secret = s
	}
}

// allHonestLiveDone reports whether every honest, currently-up node
// has completed Sh.
func (r *VSSResult) allHonestLiveDone() bool {
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

// HonestDone counts honest nodes that completed Sh.
func (r *VSSResult) HonestDone() int {
	done := 0
	for _, node := range r.Nodes {
		if node.Done() {
			done++
		}
	}
	return done
}

// CheckConsistency verifies the paper's Consistency property across
// all completed honest nodes: a single commitment matrix, every share
// valid against it, and any t+1 shares interpolating to the same
// value — equal to the dealt secret, and the one the matrix commits to,
// when the dealer is honest (checkSecret).
func (r *VSSResult) CheckConsistency(checkSecret bool) error {
	var ref vss.SharedEvent
	var have bool
	pts := make([]poly.Point, 0, r.Opts.T+1)
	for id, node := range r.Nodes {
		if !node.Done() {
			continue
		}
		ev := r.Shared[id]
		if !have {
			ref, have = ev, true
		} else if ref.C.Hash() != ev.C.Hash() {
			return fmt.Errorf("%w: nodes decided different commitments", ErrInconsistency)
		}
		if !ev.C.VerifyShare(int64(id), ev.Share) {
			return fmt.Errorf("%w: node %d share fails verification", ErrInconsistency, id)
		}
		if len(pts) < r.Opts.T+1 {
			pts = append(pts, poly.Point{X: int64(id), Y: ev.Share})
		}
	}
	if !have {
		return fmt.Errorf("%w: no node completed", ErrIncomplete)
	}
	if len(pts) < r.Opts.T+1 {
		return fmt.Errorf("%w: only %d completed shares", ErrIncomplete, len(pts))
	}
	z, err := poly.Interpolate(r.Opts.Group.Q(), pts, 0)
	if err != nil {
		return err
	}
	if checkSecret && z.Cmp(new(big.Int).Mod(r.Secret, r.Opts.Group.Q())) != 0 {
		return fmt.Errorf("%w: interpolated %v, dealt %v", ErrInconsistency, z, r.Secret)
	}
	if checkSecret && !ref.C.PublicKey().Equal(r.Opts.Group.GExp(z)) {
		return fmt.Errorf("%w: commitment public key mismatch", ErrInconsistency)
	}
	return nil
}

// BuildDirectory generates n key pairs deterministically and returns
// the public directory plus the private keys by node.
func BuildDirectory(scheme sig.Scheme, n int, seed uint64) (*sig.Directory, map[msg.NodeID][]byte, error) {
	dir := sig.NewDirectory(scheme)
	privs := make(map[msg.NodeID][]byte, n)
	r := randutil.NewReader(seed ^ 0x51677)
	for i := 1; i <= n; i++ {
		priv, pub, err := scheme.GenerateKey(r)
		if err != nil {
			return nil, nil, err
		}
		if err := dir.Add(int64(i), pub); err != nil {
			return nil, nil, err
		}
		privs[msg.NodeID(i)] = priv
	}
	return dir, privs, nil
}
