package hybriddkg

import (
	"context"
	"fmt"
	"math/big"
	"runtime"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/dataplane"
	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/proactive"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/thresh"
	"hybriddkg/internal/verify"
)

// KeyState is the serving lifecycle of a Key: Ready (installed, not
// yet serving), Serving, Retiring (draining, no new requests).
type KeyState = dataplane.KeyState

// Key lifecycle states.
const (
	KeyReady    = dataplane.StateReady
	KeyServing  = dataplane.StateServing
	KeyRetiring = dataplane.StateRetiring
)

// BeaconResult is one random-beacon round: Output is the 32-byte
// beacon value, the hash of the round's threshold-coin value
// Value = H_r^s (thresh.BeaconOutput).
type BeaconResult = dataplane.BeaconResult

// ServiceStats is one node's data-plane activity counters.
type ServiceStats = dataplane.Stats

// ErrOverloaded is returned when per-key admission control sheds a
// request (token bucket empty or pending queue full).
var ErrOverloaded = dataplane.ErrOverloaded

// ErrRetiring is returned for requests against a retiring key.
var ErrRetiring = dataplane.ErrRetiring

// Network is an in-memory deployment of n protocol nodes over the
// deterministic asynchronous simulator, each running a data-plane
// service for threshold operations. Completed DKG sessions become
// long-lived Key objects whose Sign/Decrypt/Beacon methods fan
// partial-operation requests out to the nodes and aggregate the
// results. Operations run sequentially; the Network is not safe for
// concurrent use (real deployments use cmd/dkgnode, not this
// simulator).
type Network struct {
	cfg    netConfig
	roster Roster
	gr     *group.Group
	sim    *simnet.Network
	dir    *sig.Directory
	privs  map[msg.NodeID][]byte
	rng    *randutil.Reader
	seq    uint64 // session counter (τ values and key IDs)

	services map[msg.NodeID]*dataplane.Service
	pool     *verify.Pool

	closed bool
}

// New builds an n-node in-memory network per the roster and options.
func New(roster Roster, opts ...Option) (*Network, error) {
	if err := roster.validate(); err != nil {
		return nil, err
	}
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	gr := group.P256()
	scheme := sig.Ed25519{}
	rng := randutil.NewReader(cfg.seed)
	dir := sig.NewDirectory(scheme)
	privs := make(map[msg.NodeID][]byte, roster.N)
	for i := 1; i <= roster.N; i++ {
		priv, pub, err := scheme.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		if err := dir.Add(int64(i), pub); err != nil {
			return nil, err
		}
		privs[msg.NodeID(i)] = priv
	}
	nw := &Network{
		cfg:      cfg,
		roster:   roster,
		gr:       gr,
		sim:      simnet.New(simnet.Options{Seed: cfg.seed}),
		dir:      dir,
		privs:    privs,
		rng:      rng,
		services: make(map[msg.NodeID]*dataplane.Service, roster.N),
	}
	if cfg.verifyWorkers != 0 {
		workers := cfg.verifyWorkers
		if workers < 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		nw.pool = verify.NewPool(workers)
	}

	peers := make([]msg.NodeID, 0, roster.N)
	for i := 1; i <= roster.N; i++ {
		peers = append(peers, msg.NodeID(i))
	}
	for i := 1; i <= roster.N; i++ {
		id := msg.NodeID(i)
		env := nw.sim.SessionEnv(id, dataplane.PeerSession)
		svc := dataplane.NewService(dataplane.Config{
			Group:      gr,
			Self:       id,
			N:          roster.N,
			T:          roster.T,
			Peers:      peers,
			Send:       func(to msg.NodeID, body msg.Body) { env.Send(to, body) },
			Rand:       randutil.NewReader(cfg.seed ^ uint64(id)<<16),
			Rate:       cfg.rate,
			Burst:      cfg.burst,
			MaxPending: cfg.maxPending,
			MaxBatch:   cfg.maxBatch,
		})
		nw.services[id] = svc
		if err := nw.sim.RegisterSession(id, dataplane.PeerSession, serviceHandler{svc}); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// serviceHandler adapts a data-plane Service to the simulator Handler.
type serviceHandler struct{ svc *dataplane.Service }

func (h serviceHandler) HandleMessage(from msg.NodeID, body msg.Body) {
	h.svc.HandleMessage(from, body)
}
func (h serviceHandler) HandleTimer(uint64) {}
func (h serviceHandler) HandleRecover()     {}

// Group exposes the discrete-log parameters in use.
func (nw *Network) Group() *group.Group { return nw.gr }

// N returns the group size.
func (nw *Network) N() int { return nw.roster.N }

// T returns the Byzantine threshold.
func (nw *Network) T() int { return nw.roster.T }

// Stats returns the simulator's message/byte accounting so far.
func (nw *Network) Stats() simnet.Stats { return nw.sim.Stats() }

// ServiceStats returns one node's data-plane counters.
func (nw *Network) ServiceStats(id NodeID) ServiceStats {
	if svc := nw.services[id]; svc != nil {
		return svc.Stats()
	}
	return ServiceStats{}
}

// VerifyStats returns the shared verification-pool counters, if a
// pool was configured with WithParallelVerify.
func (nw *Network) VerifyStats() (verify.PoolStats, bool) {
	if nw.pool == nil {
		return verify.PoolStats{}, false
	}
	return nw.pool.Stats(), true
}

// Crash marks a node crashed (messages to it are lost until Recover).
func (nw *Network) Crash(id int) { nw.sim.Crash(msg.NodeID(id)) }

// Recover brings a crashed node back.
func (nw *Network) Recover(id int) { nw.sim.Recover(msg.NodeID(id)) }

// Close shuts down every data-plane service (failing their pending
// requests) and the verification pool.
func (nw *Network) Close() {
	if nw.closed {
		return
	}
	nw.closed = true
	for _, svc := range nw.services {
		svc.Close()
	}
	if nw.pool != nil {
		nw.pool.Close()
	}
}

// dkgParams builds the protocol parameters shared by all sessions,
// threading the configured verification pipeline into the VSS layer.
func (nw *Network) dkgParams(id msg.NodeID) dkg.Params {
	p := dkg.Params{
		Group:          nw.gr,
		N:              nw.roster.N,
		T:              nw.roster.T,
		F:              nw.roster.F,
		DedupDealings:  true,
		CompressedWire: true,
		Certificates:   nw.cfg.certificates,
		Directory:      nw.dir,
		SignKey:        nw.privs[id],
	}
	if nw.pool != nil {
		p.Parallel = nw.pool
	}
	return p
}

type handlerAdapter struct {
	onMsg     func(msg.NodeID, msg.Body)
	onTimer   func(uint64)
	onRecover func()
}

func (h handlerAdapter) HandleMessage(from msg.NodeID, body msg.Body) { h.onMsg(from, body) }
func (h handlerAdapter) HandleTimer(id uint64) {
	if h.onTimer != nil {
		h.onTimer(id)
	}
}
func (h handlerAdapter) HandleRecover() {
	if h.onRecover != nil {
		h.onRecover()
	}
}

// dkgResult is one completed DKG: the commitment vector and every live
// node's share.
type dkgResult struct {
	v      *commit.Vector
	shares map[msg.NodeID]*big.Int
}

// runDKG runs one full DKG session with the given τ and collects the
// result. Crashed nodes neither deal nor complete; the DKG tolerates up
// to f of them.
func (nw *Network) runDKG(tau uint64) (*dkgResult, error) {
	nodes := make(map[msg.NodeID]*dkg.Node, nw.roster.N)
	for i := 1; i <= nw.roster.N; i++ {
		id := msg.NodeID(i)
		node, err := dkg.NewNode(nw.dkgParams(id), tau, id, nw.sim.Env(id), dkg.Options{})
		if err != nil {
			return nil, err
		}
		nodes[id] = node
		nw.sim.Register(id, handlerAdapter{
			onMsg:     node.Handle,
			onTimer:   node.HandleTimer,
			onRecover: node.HandleRecover,
		})
	}
	for i := 1; i <= nw.roster.N; i++ {
		id := msg.NodeID(i)
		if nw.sim.Crashed(id) {
			continue
		}
		if err := nodes[id].Start(randutil.NewReader(nw.cfg.seed ^ tau<<32 ^ uint64(id))); err != nil {
			return nil, err
		}
	}
	done := func() bool {
		for id, node := range nodes {
			if nw.sim.Crashed(id) {
				continue
			}
			if !node.Done() {
				return false
			}
		}
		return true
	}
	nw.sim.RunUntil(done, 0)
	nw.sim.Run(0)
	if !done() {
		return nil, ErrIncomplete
	}
	res := &dkgResult{shares: make(map[msg.NodeID]*big.Int, nw.roster.N)}
	for id, node := range nodes {
		if !node.Done() {
			continue // crashed mid-run; recovers via help, has no share yet
		}
		ev := node.Result()
		res.v, res.shares[id] = ev.V, ev.Share
	}
	if res.v == nil {
		return nil, ErrIncomplete
	}
	return res, nil
}

// pump drives the simulator until done or no progress is possible.
func (nw *Network) pump(ctx context.Context, key msg.SessionID, done func() bool) error {
	for i := 0; i < 256; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		nw.sim.RunUntil(done, 2_000_000)
		if done() {
			return nil
		}
		for _, svc := range nw.services {
			svc.Kick(key)
		}
		if done() {
			return nil
		}
		if nw.sim.Pending() == 0 {
			return ErrIncomplete
		}
	}
	return ErrIncomplete
}

// Key is a long-lived distributed key served by the network's data
// plane: one DKG session's output installed on every node, with a
// serving lifecycle (Ready → Serving → Retiring) and threshold
// operations that aggregate partial results from a quorum.
type Key struct {
	nw     *Network
	id     msg.SessionID
	agg    msg.NodeID // pinned aggregator; 0 = lowest live node
	pk     group.Element
	v      *commit.Vector
	shares map[msg.NodeID]*big.Int
}

// GenerateKey runs one full DKG and installs the result on every
// node's data-plane service, returning the serving Key.
func (nw *Network) GenerateKey(ctx context.Context, opts ...KeyOption) (*Key, error) {
	var kc keyConfig
	for _, o := range opts {
		o(&kc)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	nw.seq++
	tau := nw.seq
	out, err := nw.runDKG(tau)
	if err != nil {
		return nil, err
	}
	sid := msg.SessionID(tau)
	v := out.v
	shares := make(map[msg.NodeID]*big.Int, len(out.shares))
	for id, svc := range nw.services {
		if out.shares[id] == nil {
			continue // crashed for the whole run: no share to serve
		}
		shares[id] = out.shares[id]
		if _, err := svc.InstallKey(sid, shares[id], v); err != nil {
			return nil, err
		}
	}
	k := &Key{nw: nw, id: sid, agg: kc.aggregator, pk: v.PublicKey(), v: v, shares: shares}
	if kc.eager {
		nw.services[k.aggregator()].Activate(sid)
		if err := nw.pump(ctx, sid, func() bool {
			info, ok := nw.services[k.aggregator()].KeyInfo(sid)
			return ok && info.State == KeyServing
		}); err != nil {
			return nil, fmt.Errorf("eager activation: %w", err)
		}
	}
	return k, nil
}

// ID returns the key's session identifier.
func (k *Key) ID() uint64 { return uint64(k.id) }

// PublicKey returns the distributed public key.
func (k *Key) PublicKey() Element { return k.pk }

// Commitment returns the Feldman vector commitment binding the
// shares to the public key.
func (k *Key) Commitment() *commit.Vector { return k.v }

// Shares exposes every live node's share (in-memory deployment only;
// a real deployment holds one share per machine).
func (k *Key) Shares() map[NodeID]*big.Int { return k.shares }

// State reports the key's serving lifecycle on its aggregator.
func (k *Key) State() KeyState {
	info, ok := k.nw.services[k.aggregator()].KeyInfo(k.id)
	if !ok {
		return KeyRetiring
	}
	return info.State
}

// aggregator resolves the node that fronts this key's requests.
func (k *Key) aggregator() msg.NodeID {
	if k.agg != 0 {
		return k.agg
	}
	for i := 1; i <= k.nw.roster.N; i++ {
		if !k.nw.sim.Crashed(msg.NodeID(i)) {
			return msg.NodeID(i)
		}
	}
	return 1
}

// do submits one data-plane request via the key's aggregator and
// pumps the network until its callback fires.
func (k *Key) do(ctx context.Context, submit func(svc *dataplane.Service, cb dataplane.Callback) error) (dataplane.Result, error) {
	svc := k.nw.services[k.aggregator()]
	var (
		res  dataplane.Result
		rerr error
		ok   bool
	)
	if err := submit(svc, func(r dataplane.Result, err error) {
		res, rerr, ok = r, err, true
	}); err != nil {
		return dataplane.Result{}, err
	}
	svc.Flush(k.id)
	if err := k.nw.pump(ctx, k.id, func() bool { return ok }); err != nil {
		return dataplane.Result{}, err
	}
	if !ok {
		return dataplane.Result{}, ErrIncomplete
	}
	return res, rerr
}

// Sign produces a threshold Schnorr signature on message by FROST: the
// aggregator and t peers each answer under a nonce pair of their own,
// used once, and the sum is checked as one ordinary Schnorr signature,
// with forgers identified and evicted only when that check fails.
func (k *Key) Sign(ctx context.Context, message []byte) (Signature, error) {
	res, err := k.do(ctx, func(svc *dataplane.Service, cb dataplane.Callback) error {
		return svc.Sign(k.id, message, cb)
	})
	if err != nil {
		return Signature{}, err
	}
	return Signature{R: res.Sig.R, Sigma: res.Sig.Sigma}, nil
}

// SignBatch signs every message in one coalesced partial round-trip
// (a single fan-out carrying len(messages) items).
func (k *Key) SignBatch(ctx context.Context, messages [][]byte) ([]Signature, error) {
	svc := k.nw.services[k.aggregator()]
	sigs := make([]Signature, len(messages))
	errs := make([]error, len(messages))
	left := len(messages)
	for i, m := range messages {
		i := i
		if err := svc.Sign(k.id, m, func(r dataplane.Result, err error) {
			sigs[i] = Signature{R: r.Sig.R, Sigma: r.Sig.Sigma}
			errs[i] = err
			left--
		}); err != nil {
			return nil, err
		}
	}
	svc.Flush(k.id)
	if err := k.nw.pump(ctx, k.id, func() bool { return left == 0 }); err != nil {
		return nil, err
	}
	if left != 0 {
		return nil, ErrIncomplete
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sigs, nil
}

// Verify checks a threshold signature against the public key.
func (k *Key) Verify(message []byte, s Signature) bool {
	return thresh.Verify(k.nw.gr, k.pk, message, thresh.Signature{R: s.R, Sigma: s.Sigma})
}

// Encrypt encrypts a group element under the public key.
func (k *Key) Encrypt(m Element) (Ciphertext, error) {
	ct, err := thresh.Encrypt(k.nw.gr, k.pk, m, k.nw.rng)
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{C1: ct.C1, C2: ct.C2}, nil
}

// Decrypt runs verified threshold decryption: t+1 nodes return
// DLEQ-proven partial decryptions which are checked and combined.
func (k *Key) Decrypt(ctx context.Context, ct Ciphertext) (Element, error) {
	res, err := k.do(ctx, func(svc *dataplane.Service, cb dataplane.Callback) error {
		return svc.Decrypt(k.id, thresh.Ciphertext{C1: ct.C1, C2: ct.C2}, cb)
	})
	if err != nil {
		return nil, err
	}
	return res.Plain, nil
}

// Beacon opens one random-beacon round (rounds start at 1): a threshold
// coin over the key's own sharing, so no DKG runs per round and every
// aggregator opening the same round gets the same output.
func (k *Key) Beacon(ctx context.Context, round uint64) (BeaconResult, error) {
	res, err := k.do(ctx, func(svc *dataplane.Service, cb dataplane.Callback) error {
		return svc.Beacon(k.id, round, cb)
	})
	if err != nil {
		return BeaconResult{}, err
	}
	return res.Beacon, nil
}

// Renew runs one proactive renewal phase (§5): every share is
// replaced, the public key is preserved, old shares become useless.
// The renewed shares are re-installed on every node's service, which
// also invalidates partial-result caches from the old share epoch.
func (k *Key) Renew(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	nw := k.nw
	nw.seq++
	phase := nw.seq
	engines := make(map[msg.NodeID]*proactive.Engine, nw.roster.N)
	for i := 1; i <= nw.roster.N; i++ {
		id := msg.NodeID(i)
		cfg := proactive.Config{
			DKG:  nw.dkgParams(id),
			Rand: randutil.NewReader(nw.cfg.seed ^ phase<<40 ^ uint64(id)),
		}
		eng, err := proactive.NewEngine(cfg, id, nw.sim.Env(id), k.shares[id], k.v, nil)
		if err != nil {
			return err
		}
		engines[id] = eng
		nw.sim.Register(id, handlerAdapter{
			onMsg:     eng.HandleMessage,
			onTimer:   eng.HandleTimer,
			onRecover: eng.HandleRecover,
		})
	}
	for i := 1; i <= nw.roster.N; i++ {
		if err := engines[msg.NodeID(i)].Tick(); err != nil {
			return err
		}
	}
	done := func() bool {
		for id, eng := range engines {
			if nw.sim.Crashed(id) {
				continue
			}
			if eng.Phase() < 1 {
				return false
			}
		}
		return true
	}
	nw.sim.RunUntil(done, 0)
	nw.sim.Run(0)
	if !done() {
		return ErrIncomplete
	}
	for id, eng := range engines {
		if eng.Phase() < 1 {
			// Crashed mid-phase: its old share is invalidated by the
			// renewal; it re-acquires one via recovery, not here.
			delete(k.shares, id)
			continue
		}
		k.shares[id] = eng.Share()
		k.v = eng.Commitment()
	}
	k.pk = k.v.PublicKey()
	for id, svc := range nw.services {
		sh := k.shares[id]
		if sh == nil {
			continue
		}
		if _, err := svc.InstallKey(k.id, sh, k.v); err != nil {
			return err
		}
	}
	return nil
}

// Retire moves the key to Retiring on every node: in-flight requests
// drain, new ones are rejected with ErrRetiring.
func (k *Key) Retire() {
	for _, svc := range k.nw.services {
		svc.Retire(k.id)
	}
}

// Reconstruct opens the shared secret by combining t+1 shares (the
// Rec protocol's arithmetic; exposed for tests — real deployments never
// open long-term keys).
func (k *Key) Reconstruct() (*big.Int, error) {
	pts := make([]poly.Point, 0, k.nw.roster.T+1)
	for id, share := range k.shares {
		pts = append(pts, poly.Point{X: int64(id), Y: share})
		if len(pts) == k.nw.roster.T+1 {
			break
		}
	}
	if len(pts) < k.nw.roster.T+1 {
		return nil, ErrIncomplete
	}
	return poly.Interpolate(k.nw.gr.Q(), pts, 0)
}
