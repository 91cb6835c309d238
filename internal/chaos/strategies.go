package chaos

import (
	"fmt"
	"math/big"

	"hybriddkg/internal/dkg"
	"hybriddkg/internal/group"
	"hybriddkg/internal/harness"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/simnet"
	"hybriddkg/internal/vss"
)

// Strategy names. Each occupies one slot of the Byzantine budget t and
// controls exactly one node; strategies stack (filters chain, node
// replacements are per-victim), so a spec may field several at once.
const (
	// StratEquivDealer runs twin protocol instances under one identity
	// with different secrets: each half of the cluster sees a valid but
	// conflicting dealing (and, when the victim leads, conflicting
	// proposals) — the classic equivocation attack.
	StratEquivDealer = "equiv-dealer"
	// StratEchoSplice relays honestly but corrupts the subshare carried
	// by every echo it sends to even-numbered peers, poisoning their
	// interpolation inputs.
	StratEchoSplice = "echo-splice"
	// StratSlowLoris serves the help/recover protocol (and everything
	// else) at a trickle: all the victim's outbound traffic is delayed
	// by a large bounded amount. A pure-delay adversary, inside the
	// weak-synchrony model.
	StratSlowLoris = "slow-loris"
	// StratWithholdCert is a certificate-mode relay that assembles
	// quorum certificates and then never multicasts them (its signature
	// contributions are withheld too) — PR-9's fallback timer must
	// flood the classic path instead.
	StratWithholdCert = "withhold-cert"
	// StratLateCert delivers the victim's certificates to odd-numbered
	// peers only just before the fallback timeout, racing the
	// cert-vs-flood arbitration.
	StratLateCert = "late-cert"
	// StratAdaptive corrupts adaptively at quorum boundaries: it
	// watches the traffic and crash-recovers exactly the node whose
	// ready (or, in cert mode, first committee signature) would cross a
	// threshold — the attack arXiv:2311.09592 aims at sampled
	// committees.
	StratAdaptive = "adaptive"
	// StratFlood is a help-protocol flooder: bursts of recover-help
	// requests against every dealer session, probing the DMax service
	// budgets that bound help amplification.
	StratFlood = "flood"
	// StratBadSigReady follows the protocol except that every VSS ready
	// it sends carries garbage where the signature belongs. The point
	// is valid, so Fig. 1 counts the ready; the forgery must never
	// reach a proposal's R_d set. RandomSpec does not draw it: the
	// catalog's draw order is what recorded seeds replay against, so
	// it runs from hand-written specs (TestBadSigReady).
	StratBadSigReady = "bad-sig-ready"
	// StratBadSigEcho is bad-sig-ready one layer up: every DKG echo and
	// ready the node sends carries garbage where the signature belongs.
	// They count by sender, so the forgery must never reach a lock's M
	// set. Hand-written specs only (TestBadSigEcho), like bad-sig-ready.
	StratBadSigEcho = "bad-sig-echo"
)

// build accumulates everything the strategies hook into a run before
// the harness assembles the cluster.
type build struct {
	spec  Spec
	gr    *group.Group
	dir   *sig.Directory
	privs map[msg.NodeID][]byte
	opts  *harness.DKGOptions

	filters []simnet.SessionFilterFunc
	// post hooks run after SetupDKG (network built, nodes registered)
	// and before StartDealers.
	post []func(*harness.DKGResult) error
}

// chainFilters composes session filters: delays accumulate, the first
// drop wins. Order is fixed by the spec, so composition is
// deterministic.
func chainFilters(fns []simnet.SessionFilterFunc) simnet.SessionFilterFunc {
	if len(fns) == 1 {
		return fns[0]
	}
	return func(sid msg.SessionID, from, to msg.NodeID, body msg.Body) simnet.Verdict {
		var out simnet.Verdict
		for _, fn := range fns {
			v := fn(sid, from, to, body)
			if v.Drop {
				return v
			}
			out.ExtraDelay += v.ExtraDelay
		}
		return out
	}
}

// byzParams mirrors the harness's parameter assembly so Byzantine
// incarnations speak exactly the cluster's dialect (wire format,
// dedup, certificates).
func byzParams(spec Spec, gr *group.Group, dir *sig.Directory, priv []byte) dkg.Params {
	return dkg.Params{
		Group:          gr,
		N:              spec.Cell.N,
		T:              spec.Cell.T,
		F:              spec.Cell.F,
		HashedEcho:     spec.HashedEcho,
		DedupDealings:  spec.DedupDealings,
		CompressedWire: spec.CompressedWire,
		DisableBatch:   false,
		Certificates:   spec.Cell.Certificates,
		Directory:      dir,
		SignKey:        priv,
	}
}

// installStrategy wires one strategy into the build.
func installStrategy(b *build, st StrategySpec) error {
	v := st.Node
	if v < 1 || int(v) > b.spec.Cell.N {
		return fmt.Errorf("chaos: strategy %s victim %d out of range", st.Name, v)
	}
	switch st.Name {
	case StratEquivDealer:
		installEquivDealer(b, v)
	case StratEchoSplice:
		installEchoSplice(b, v)
	case StratSlowLoris:
		installSlowLoris(b, v)
	case StratWithholdCert:
		installWithholdCert(b, v)
	case StratLateCert:
		installLateCert(b, v)
	case StratAdaptive:
		installAdaptive(b)
	case StratFlood:
		installFlood(b, v)
	case StratBadSigReady:
		installWrappedNode(b, v, func(env *simnet.Env) dkg.Runtime { return &badSigRuntime{env: env} }, nil)
	case StratBadSigEcho:
		installWrappedNode(b, v, func(env *simnet.Env) dkg.Runtime { return &badSigRuntime{env: env, dkgLayer: true} }, nil)
	default:
		return fmt.Errorf("chaos: unknown strategy %q", st.Name)
	}
	return nil
}

// ---- equivocating dealer -------------------------------------------

// twinOffset relocates twin B's timers into a disjoint id space so two
// protocol instances can share one simnet timer namespace.
const twinOffset = uint64(1) << 40

// twinRuntime splits one identity across two instances: instance A
// talks to the low half of the cluster, B to the high half; B's timers
// are relocated by twinOffset (its certificate fallback is simply
// dropped — one fallback per identity is all the adversary needs).
type twinRuntime struct {
	env  *simnet.Env
	n    int
	low  bool
	high bool
	off  uint64
}

func (t *twinRuntime) Send(to msg.NodeID, body msg.Body) {
	if int(to) <= t.n/2 {
		if t.low {
			t.env.Send(to, body)
		}
		return
	}
	if t.high {
		t.env.Send(to, body)
	}
}

func (t *twinRuntime) SetTimer(id uint64, delay int64) {
	if t.off != 0 {
		if id == dkg.CertFallbackTimer {
			return
		}
		id |= t.off
	}
	t.env.SetTimer(id, delay)
}

func (t *twinRuntime) StopTimer(id uint64) {
	if t.off != 0 {
		if id == dkg.CertFallbackTimer {
			return
		}
		id |= t.off
	}
	t.env.StopTimer(id)
}

// twinHandler feeds every input to both incarnations and demuxes the
// relocated timer space.
type twinHandler struct{ a, b *dkg.Node }

func (h *twinHandler) HandleMessage(from msg.NodeID, body msg.Body) {
	h.a.Handle(from, body)
	h.b.Handle(from, body)
}

func (h *twinHandler) HandleTimer(id uint64) {
	if id == dkg.CertFallbackTimer {
		h.a.HandleTimer(id)
		return
	}
	if id&twinOffset != 0 {
		h.b.HandleTimer(id &^ twinOffset)
		return
	}
	h.a.HandleTimer(id)
}

func (h *twinHandler) HandleRecover() {
	h.a.HandleRecover()
	h.b.HandleRecover()
}

func installEquivDealer(b *build, v msg.NodeID) {
	spec := b.spec
	th := &twinHandler{}
	if b.opts.Byzantine == nil {
		b.opts.Byzantine = make(map[msg.NodeID]func(env *simnet.Env) simnet.Handler)
	}
	var buildErr error
	b.opts.Byzantine[v] = func(env *simnet.Env) simnet.Handler {
		params := byzParams(spec, b.gr, b.dir, b.privs[v])
		a, err := dkg.NewNode(params, 1, v, &twinRuntime{env: env, n: spec.Cell.N, low: true}, dkg.Options{})
		if err != nil {
			buildErr = err
			return th
		}
		bb, err := dkg.NewNode(params, 1, v, &twinRuntime{env: env, n: spec.Cell.N, high: true, off: twinOffset}, dkg.Options{})
		if err != nil {
			buildErr = err
			return th
		}
		th.a, th.b = a, bb
		return th
	}
	b.post = append(b.post, func(res *harness.DKGResult) error {
		if buildErr != nil {
			return fmt.Errorf("chaos: equiv-dealer twins: %w", buildErr)
		}
		seed := spec.Seed
		// Both twins deal, from different randomness: two valid,
		// conflicting sharings under one signing identity.
		res.Net.Schedule(0, func() {
			_ = th.a.Start(randutil.NewReader(seed ^ uint64(v)<<24 ^ 0xa11ce))
			_ = th.b.Start(randutil.NewReader(seed ^ uint64(v)<<24 ^ 0xb0b))
		})
		return nil
	})
}

// ---- echo splicer ---------------------------------------------------

// spliceRuntime corrupts the Alpha subshare of every echo sent to an
// even-numbered peer, leaving all other traffic honest.
type spliceRuntime struct {
	env *simnet.Env
}

func (s *spliceRuntime) Send(to msg.NodeID, body msg.Body) {
	if e, ok := body.(*vss.EchoMsg); ok && to%2 == 0 && e.Alpha != nil {
		spliced := *e
		spliced.Alpha = new(big.Int).Add(e.Alpha, big.NewInt(1))
		s.env.Send(to, &spliced)
		return
	}
	s.env.Send(to, body)
}

func (s *spliceRuntime) SetTimer(id uint64, delay int64) { s.env.SetTimer(id, delay) }
func (s *spliceRuntime) StopTimer(id uint64)             { s.env.StopTimer(id) }

func installEchoSplice(b *build, v msg.NodeID) {
	installWrappedNode(b, v, func(env *simnet.Env) dkg.Runtime { return &spliceRuntime{env: env} }, nil)
}

// badSigRuntime replaces the signature of every outgoing VSS ready, or
// with dkgLayer of every outgoing DKG echo and ready.
type badSigRuntime struct {
	env      *simnet.Env
	dkgLayer bool
}

func (s *badSigRuntime) Send(to msg.NodeID, body msg.Body) {
	switch m := body.(type) {
	case *vss.ReadyMsg:
		if !s.dkgLayer {
			forged := *m
			forged.Sig = []byte("bad-sig-ready")
			body = &forged
		}
	case *dkg.EchoMsg:
		if s.dkgLayer {
			forged := *m
			forged.Sig = []byte("bad-sig-echo")
			body = &forged
		}
	case *dkg.ReadyMsg:
		if s.dkgLayer {
			forged := *m
			forged.Sig = []byte("bad-sig-echo")
			body = &forged
		}
	}
	s.env.Send(to, body)
}

func (s *badSigRuntime) SetTimer(id uint64, delay int64) { s.env.SetTimer(id, delay) }
func (s *badSigRuntime) StopTimer(id uint64)             { s.env.StopTimer(id) }

// installWrappedNode registers a Byzantine victim that runs a real
// protocol node behind a mutating runtime, started alongside the
// honest dealers; onNode exposes the node to the caller.
func installWrappedNode(b *build, v msg.NodeID, mkRT func(env *simnet.Env) dkg.Runtime, onNode func(*dkg.Node)) {
	spec := b.spec
	if b.opts.Byzantine == nil {
		b.opts.Byzantine = make(map[msg.NodeID]func(env *simnet.Env) simnet.Handler)
	}
	var node *dkg.Node
	var buildErr error
	b.opts.Byzantine[v] = func(env *simnet.Env) simnet.Handler {
		params := byzParams(spec, b.gr, b.dir, b.privs[v])
		nd, err := dkg.NewNode(params, 1, v, mkRT(env), dkg.Options{})
		if err != nil {
			buildErr = err
			return silentHandler{}
		}
		node = nd
		if onNode != nil {
			onNode(nd)
		}
		return &nodeAdapter{node: nd}
	}
	b.post = append(b.post, func(res *harness.DKGResult) error {
		if buildErr != nil {
			return fmt.Errorf("chaos: victim %d: %w", v, buildErr)
		}
		seed := spec.Seed
		res.Net.Schedule(0, func() {
			_ = node.Start(randutil.NewReader(seed ^ uint64(v)<<24 ^ 0x5b1))
		})
		return nil
	})
}

type nodeAdapter struct{ node *dkg.Node }

func (a *nodeAdapter) HandleMessage(from msg.NodeID, body msg.Body) { a.node.Handle(from, body) }
func (a *nodeAdapter) HandleTimer(id uint64)                        { a.node.HandleTimer(id) }
func (a *nodeAdapter) HandleRecover()                               { a.node.HandleRecover() }

type silentHandler struct{}

func (silentHandler) HandleMessage(msg.NodeID, msg.Body) {}
func (silentHandler) HandleTimer(uint64)                 {}
func (silentHandler) HandleRecover()                     {}

// ---- slow-loris -----------------------------------------------------

func installSlowLoris(b *build, v msg.NodeID) {
	rng := randutil.NewReader(b.spec.Seed ^ uint64(v) ^ 0x510)
	b.filters = append(b.filters, func(_ msg.SessionID, from, to msg.NodeID, _ msg.Body) simnet.Verdict {
		if from != v || to == v {
			return simnet.Verdict{}
		}
		// Large but bounded: weak synchrony holds, leader-change
		// timeouts double past it eventually.
		return simnet.Verdict{ExtraDelay: 4000 + rng.Int64N(4000)}
	})
}

// ---- certificate relays --------------------------------------------

func isCert(t msg.Type) bool     { return t == msg.TVSSCert || t == msg.TDKGCert }
func isCertSign(t msg.Type) bool { return t == msg.TVSSCertSign || t == msg.TDKGCertSign }

func installWithholdCert(b *build, v msg.NodeID) {
	b.filters = append(b.filters, func(_ msg.SessionID, from, to msg.NodeID, body msg.Body) simnet.Verdict {
		if from != v || from == to {
			return simnet.Verdict{}
		}
		if t := body.MsgType(); isCert(t) || isCertSign(t) {
			// Byzantine censorship by a sampled relay: inside the t
			// budget, so liveness stays asserted — the fallback timer
			// must carry the run.
			return simnet.Verdict{Drop: true, AllowDrop: true}
		}
		return simnet.Verdict{}
	})
}

func installLateCert(b *build, v msg.NodeID) {
	rng := randutil.NewReader(b.spec.Seed ^ uint64(v) ^ 0x1a7e)
	b.filters = append(b.filters, func(_ msg.SessionID, from, to msg.NodeID, body msg.Body) simnet.Verdict {
		if from != v || from == to || !isCert(body.MsgType()) || to%2 == 0 {
			return simnet.Verdict{}
		}
		// Land just around the fallback timeout (TimeoutBase default
		// 5000): half the cluster sees the certificate, half races the
		// flood fallback.
		return simnet.Verdict{ExtraDelay: 4200 + rng.Int64N(1600)}
	})
}

// ---- adaptive corruption -------------------------------------------

// adaptiveState crash-recovers the node whose traffic is about to
// cross a quorum boundary: the t+1-th distinct ready sender in flood
// mode, the first committee signer in certificate mode. One victim at
// a time, bounded crash windows — inside the f crash-recovery budget.
type adaptiveState struct {
	net      *simnet.Network
	boundary int
	down     int64
	slots    int
	ready    map[msg.NodeID]bool
	struck   map[msg.NodeID]bool
}

func (a *adaptiveState) observe(from msg.NodeID, body msg.Body) {
	if a.slots <= 0 || a.net == nil || a.struck[from] {
		return
	}
	t := body.MsgType()
	strike := false
	switch {
	case t == msg.TVSSReady || t == msg.TDKGReady:
		if !a.ready[from] {
			a.ready[from] = true
			strike = len(a.ready) == a.boundary
		}
	case isCertSign(t):
		strike = true
	}
	if !strike {
		return
	}
	a.slots--
	a.struck[from] = true
	victim := from
	a.net.Schedule(0, func() { a.net.Crash(victim) })
	a.net.Schedule(a.down, func() { a.net.Recover(victim) })
}

func installAdaptive(b *build) {
	st := &adaptiveState{
		boundary: b.spec.Cell.T + 1,
		down:     2500,
		slots:    1,
		ready:    make(map[msg.NodeID]bool),
		struck:   make(map[msg.NodeID]bool),
	}
	b.filters = append(b.filters, func(_ msg.SessionID, from, to msg.NodeID, body msg.Body) simnet.Verdict {
		st.observe(from, body)
		return simnet.Verdict{}
	})
	b.post = append(b.post, func(res *harness.DKGResult) error {
		st.net = res.Net
		return nil
	})
}

// ---- help flooder ---------------------------------------------------

// floodRuntime runs an honest inner node; the flooding itself happens
// in the handler wrapper.
type floodHandler struct {
	inner  *dkg.Node
	env    *simnet.Env
	n      int
	seen   int
	bursts int
	dealer int
}

func (f *floodHandler) HandleMessage(from msg.NodeID, body msg.Body) {
	f.inner.Handle(from, body)
	f.seen++
	if f.bursts >= 60 || f.seen%10 != 0 {
		return
	}
	f.bursts++
	// One burst: a recover-help request against a rotating dealer
	// session, multicast to everyone — the DMax budgets must cap the
	// amplification.
	f.dealer = f.dealer%f.n + 1
	help := &vss.HelpMsg{Session: vss.SessionID{Dealer: msg.NodeID(f.dealer), Tau: 1}}
	for j := 1; j <= f.n; j++ {
		if msg.NodeID(j) != f.env.ID() {
			f.env.Send(msg.NodeID(j), help)
		}
	}
}

func (f *floodHandler) HandleTimer(id uint64) { f.inner.HandleTimer(id) }
func (f *floodHandler) HandleRecover()        { f.inner.HandleRecover() }

func installFlood(b *build, v msg.NodeID) {
	spec := b.spec
	if b.opts.Byzantine == nil {
		b.opts.Byzantine = make(map[msg.NodeID]func(env *simnet.Env) simnet.Handler)
	}
	fh := &floodHandler{n: spec.Cell.N}
	var buildErr error
	b.opts.Byzantine[v] = func(env *simnet.Env) simnet.Handler {
		params := byzParams(spec, b.gr, b.dir, b.privs[v])
		nd, err := dkg.NewNode(params, 1, v, env, dkg.Options{})
		if err != nil {
			buildErr = err
			return silentHandler{}
		}
		fh.inner, fh.env = nd, env
		return fh
	}
	b.post = append(b.post, func(res *harness.DKGResult) error {
		if buildErr != nil {
			return fmt.Errorf("chaos: flooder %d: %w", v, buildErr)
		}
		seed := spec.Seed
		res.Net.Schedule(0, func() {
			_ = fh.inner.Start(randutil.NewReader(seed ^ uint64(v)<<24 ^ 0xf100d))
		})
		return nil
	})
}
