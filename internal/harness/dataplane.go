package harness

import (
	"fmt"
	"math/big"
	"time"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/dataplane"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/thresh"
)

// DataPlaneOptions configures a data-plane cluster fixture.
type DataPlaneOptions struct {
	N, T int
	Seed uint64
	// Group defaults to group.Test256().
	Group *group.Group
	// Tweak adjusts each node's service configuration (admission
	// limits, batch watermarks, message taps) before construction.
	Tweak func(*dataplane.Config)
	// Timers enables simulator-scheduled retry timers; without them
	// the fixture pumps stalled requests via Kick.
	Timers bool
}

// DataPlaneCluster is an n-node data-plane deployment over the
// deterministic simulator, with key and beacon shares dealt
// directly from polynomials (the control plane is exercised
// elsewhere; this fixture isolates the serving path). It backs the
// dataplane unit tests and the E20 benchmark.
type DataPlaneCluster struct {
	Opts     DataPlaneOptions
	Group    *group.Group
	Net      *simnet.Network
	Services map[msg.NodeID]*dataplane.Service
	KeyID    msg.SessionID
	KeyV     *commit.Vector

	rng *randutil.Reader
	key *poly.Poly
}

// NewDataPlaneCluster deals a shared key across n services wired over
// a fresh simulator and installs it on every node.
func NewDataPlaneCluster(opts DataPlaneOptions) (*DataPlaneCluster, error) {
	if opts.Group == nil {
		opts.Group = group.Test256()
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.N < opts.T+1 {
		return nil, fmt.Errorf("harness: n=%d < t+1=%d", opts.N, opts.T+1)
	}
	c := &DataPlaneCluster{
		Opts:     opts,
		Group:    opts.Group,
		Net:      simnet.New(simnet.Options{Seed: opts.Seed}),
		Services: make(map[msg.NodeID]*dataplane.Service, opts.N),
		KeyID:    1,
		rng:      randutil.NewReader(opts.Seed),
	}
	peers := make([]msg.NodeID, 0, opts.N)
	for i := 1; i <= opts.N; i++ {
		peers = append(peers, msg.NodeID(i))
	}
	for i := 1; i <= opts.N; i++ {
		id := msg.NodeID(i)
		env := c.Net.SessionEnv(id, dataplane.PeerSession)
		cfg := dataplane.Config{
			Group: c.Group,
			Self:  id,
			N:     opts.N,
			T:     opts.T,
			Peers: peers,
			Send:  func(to msg.NodeID, body msg.Body) { env.Send(to, body) },
			Provision: func(key msg.SessionID, sids []msg.SessionID) {
				c.provision(sids)
			},
			Rand: randutil.NewReader(opts.Seed ^ uint64(id)<<16),
		}
		if opts.Timers {
			cfg.Defer = func(d time.Duration, fn func()) {
				c.Net.Schedule(int64(d/time.Millisecond)+1, fn)
			}
		}
		if opts.Tweak != nil {
			opts.Tweak(&cfg)
		}
		svc := dataplane.NewService(cfg)
		c.Services[id] = svc
		if err := c.Net.RegisterSession(id, dataplane.PeerSession, dataPlaneHandler{svc}); err != nil {
			return nil, err
		}
	}
	// Deal the long-term key.
	p, v, err := c.deal()
	if err != nil {
		return nil, err
	}
	c.key, c.KeyV = p, v
	for id, svc := range c.Services {
		if _, err := svc.InstallKey(c.KeyID, p.EvalInt(int64(id)), v); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// dataPlaneHandler adapts a Service to the simulator Handler surface.
type dataPlaneHandler struct{ svc *dataplane.Service }

func (h dataPlaneHandler) HandleMessage(from msg.NodeID, body msg.Body) {
	h.svc.HandleMessage(from, body)
}
func (h dataPlaneHandler) HandleTimer(uint64) {}
func (h dataPlaneHandler) HandleRecover()     {}

// deal fabricates one degree-t sharing.
func (c *DataPlaneCluster) deal() (*poly.Poly, *commit.Vector, error) {
	p, err := poly.NewRandom(c.Group.Q(), c.Opts.T, c.rng)
	if err != nil {
		return nil, nil, err
	}
	return p, commit.NewVector(c.Group, p), nil
}

// provision deals the requested beacon sessions and installs the
// shares on every node — the fixture's stand-in for running real beacon
// DKGs through the engine.
func (c *DataPlaneCluster) provision(sids []msg.SessionID) {
	for _, sid := range sids {
		p, v, err := c.deal()
		if err != nil {
			panic(err)
		}
		for id, svc := range c.Services {
			svc.InstallAux(sid, []*big.Int{p.EvalInt(int64(id))}, []*commit.Vector{v})
		}
	}
}

// PrefillNonces has every other node issue count signing commitments to
// aggregator agg, and delivers them, before the caller starts timing.
// Each signature then brings back as many commitments as it spends, so
// a prefilled aggregator asks for none on its signing path. The E20
// benchmark uses this to keep first contact out of its timed windows.
func (c *DataPlaneCluster) PrefillNonces(agg msg.NodeID, count int) error {
	if count <= 0 {
		return nil
	}
	env := c.Net.SessionEnv(agg, dataplane.PeerSession)
	for i := 1; i <= c.Opts.N; i++ {
		if id := msg.NodeID(i); id != agg {
			env.Send(id, &dataplane.PartialReq{Key: c.KeyID, Want: uint32(count)})
		}
	}
	c.Net.Run(0)
	return nil
}

// Renew re-shares the key as proactive renewal does — same secret, new
// polynomial — and installs every node's new share at once, without
// running the simulator: requests in flight see the new epoch.
func (c *DataPlaneCluster) Renew() error {
	p, err := poly.NewRandomWithConstant(c.Group.Q(), c.key.Secret(), c.Opts.T, c.rng)
	if err != nil {
		return err
	}
	c.key, c.KeyV = p, commit.NewVector(c.Group, p)
	for id, svc := range c.Services {
		if _, err := svc.InstallKey(c.KeyID, p.EvalInt(int64(id)), c.KeyV); err != nil {
			return err
		}
	}
	return nil
}

// Pump drives the simulator until done, kicking stalled services
// between drains. Returns done()'s final value.
func (c *DataPlaneCluster) Pump(done func() bool) bool {
	for i := 0; i < 64; i++ {
		c.Net.RunUntil(done, 2_000_000)
		if done() {
			return true
		}
		for _, svc := range c.Services {
			svc.Kick(c.KeyID)
		}
		if c.Net.Pending() == 0 {
			return done()
		}
	}
	return done()
}

// Sign synchronously signs message via the given aggregator node.
func (c *DataPlaneCluster) Sign(agg msg.NodeID, message []byte) (thresh.Signature, error) {
	var (
		res  dataplane.Result
		rerr error
		ok   bool
	)
	err := c.Services[agg].Sign(c.KeyID, message, func(r dataplane.Result, err error) {
		res, rerr, ok = r, err, true
	})
	if err != nil {
		return thresh.Signature{}, err
	}
	c.Services[agg].Flush(c.KeyID)
	c.Pump(func() bool { return ok })
	if !ok {
		return thresh.Signature{}, fmt.Errorf("harness: sign request stalled")
	}
	return res.Sig, rerr
}

// Decrypt synchronously decrypts via the given aggregator node.
func (c *DataPlaneCluster) Decrypt(agg msg.NodeID, ct thresh.Ciphertext) (group.Element, error) {
	var (
		res  dataplane.Result
		rerr error
		ok   bool
	)
	err := c.Services[agg].Decrypt(c.KeyID, ct, func(r dataplane.Result, err error) {
		res, rerr, ok = r, err, true
	})
	if err != nil {
		return nil, err
	}
	c.Services[agg].Flush(c.KeyID)
	c.Pump(func() bool { return ok })
	if !ok {
		return nil, fmt.Errorf("harness: decrypt request stalled")
	}
	return res.Plain, rerr
}

// Beacon synchronously opens one beacon round via the aggregator.
func (c *DataPlaneCluster) Beacon(agg msg.NodeID, round uint64) (dataplane.BeaconResult, error) {
	var (
		res  dataplane.Result
		rerr error
		ok   bool
	)
	err := c.Services[agg].Beacon(c.KeyID, round, func(r dataplane.Result, err error) {
		res, rerr, ok = r, err, true
	})
	if err != nil {
		return dataplane.BeaconResult{}, err
	}
	c.Services[agg].Flush(c.KeyID)
	c.Pump(func() bool { return ok })
	if !ok {
		return dataplane.BeaconResult{}, fmt.Errorf("harness: beacon request stalled")
	}
	return res.Beacon, rerr
}

// SignBatch enqueues all messages on one aggregator, flushes once
// (one coalesced partial round-trip) and waits for every signature.
func (c *DataPlaneCluster) SignBatch(agg msg.NodeID, messages [][]byte) ([]thresh.Signature, error) {
	sigs := make([]thresh.Signature, len(messages))
	errs := make([]error, len(messages))
	left := len(messages)
	for i, m := range messages {
		i := i
		err := c.Services[agg].Sign(c.KeyID, m, func(r dataplane.Result, err error) {
			sigs[i], errs[i] = r.Sig, err
			left--
		})
		if err != nil {
			return nil, err
		}
	}
	c.Services[agg].Flush(c.KeyID)
	c.Pump(func() bool { return left == 0 })
	if left != 0 {
		return nil, fmt.Errorf("harness: %d of %d signatures stalled", left, len(messages))
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sigs, nil
}
