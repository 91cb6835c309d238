package hybriddkg

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"net"
	"os"
	"time"

	"hybriddkg/internal/dataplane"
	"hybriddkg/internal/dkg"
	"hybriddkg/internal/engine"
	"hybriddkg/internal/group"
	"hybriddkg/internal/groupmod"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/proactive"
	"hybriddkg/internal/rbc"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/store"
	"hybriddkg/internal/telemetry"
	"hybriddkg/internal/thresh"
	"hybriddkg/internal/transport"
	"hybriddkg/internal/verify"
	"hybriddkg/internal/vss"
)

// PeerAddr names one node's peer-transport endpoint.
type PeerAddr struct {
	ID   NodeID
	Addr string
}

// KeyRing is one node's authentication material: every node's Ed25519
// public key, this node's private key and the cluster's shared
// transport secret. In a real deployment each node receives only its
// own private key plus all public keys (the paper's certificate model,
// §2.3).
type KeyRing struct {
	Public          map[NodeID][]byte
	Private         []byte
	TransportSecret []byte
}

// NewKeyRings generates fresh authentication material for an n-node
// cluster: one ring per node, sharing the public directory and the
// transport secret. The operator distributes ring i to node i. The
// scheme must be "ed25519", the only one a node accepts.
func NewKeyRings(n int, schemeName string) ([]KeyRing, error) {
	if schemeName != "ed25519" {
		return nil, fmt.Errorf("%w: signature scheme %q (only ed25519 is served)", ErrBadOptions, schemeName)
	}
	var secret [32]byte
	if _, err := rand.Read(secret[:]); err != nil {
		return nil, err
	}
	public := make(map[NodeID][]byte, n)
	privs := make([][]byte, n)
	for i := 1; i <= n; i++ {
		priv, pub, err := sig.Ed25519{}.GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		public[NodeID(i)] = pub
		privs[i-1] = priv
	}
	rings := make([]KeyRing, n)
	for i := range rings {
		rings[i] = KeyRing{
			Public:          public,
			Private:         privs[i],
			TransportSecret: secret[:],
		}
	}
	return rings, nil
}

func (k KeyRing) directory() (*sig.Directory, error) {
	dir := sig.NewDirectory(sig.Ed25519{})
	for id, pub := range k.Public {
		if err := dir.Add(int64(id), pub); err != nil {
			return nil, err
		}
	}
	return dir, nil
}

// ServerConfig configures one node of a real TCP deployment.
type ServerConfig struct {
	Self   NodeID
	Roster Roster
	// Listen is the peer-transport address; ClientListen, when set,
	// additionally serves the client request protocol (Sign, Decrypt,
	// Beacon over length-prefixed frames) on that address.
	Listen       string
	ClientListen string
	Peers        []PeerAddr
	Keys         KeyRing

	// InitialLeader is the first view's leader (default node 1);
	// TimeoutBase the leader-change delay base in milliseconds
	// (default 10s).
	InitialLeader NodeID
	TimeoutBase   int64

	// MaxActive bounds concurrently active sessions (0 = unbounded).
	MaxActive int
	// VerifyWorkers sizes the pool that checks live sessions'
	// signatures ahead of the state machines, runs batch flushes and
	// runs the data plane's decrypt and beacon combines off its lock
	// (0 = everything inline). ShardSessions gives concurrent sessions
	// their own dispatch lanes (forced off with StateDir).
	VerifyWorkers int
	ShardSessions bool

	// StateDir enables durable state (WAL + snapshots) and restart
	// recovery. SnapshotEvery and SyncEvery tune it.
	StateDir      string
	SnapshotEvery int
	SyncEvery     int

	// MetricsListen enables the introspection endpoint on that
	// address: /metrics (Prometheus text exposition), /sessions
	// (tracer-derived session summaries) and /keys (data-plane key
	// snapshots). Empty keeps telemetry fully off — every instrument
	// stays nil and the hot paths pay a single predictable branch.
	MetricsListen string

	// Logf receives startup diagnostics (configuration adjustments
	// the server makes on the caller's behalf, e.g. ShardSessions
	// being forced off by StateDir). Nil logs to stderr; swap in a
	// no-op to silence.
	Logf func(format string, args ...any)
}

// SessionEvent is one completed DKG session on this node.
type SessionEvent struct {
	Session   uint64
	FinalView uint64
	Q         []NodeID
	PublicKey Element
	Share     *big.Int
}

// SessionFailure is a session this node could not run.
type SessionFailure struct {
	Session uint64
	Err     error
}

// EngineStats is the session engine's lifecycle accounting.
type EngineStats = engine.Stats

// WireStats is the transport's bytes-on-wire books.
type WireStats = transport.WireStats

// WireMsgType keys WireStats' per-message-type books.
type WireMsgType = msg.Type

// SessionID keys WireStats' per-session books (τ values).
type SessionID = msg.SessionID

// Server is one TCP deployment node: the session engine multiplexing
// DKG sessions over one transport endpoint, a data-plane service
// serving partial threshold operations to peers, and (optionally) the
// client request protocol on a second listener. Completed DKG
// sessions are installed on the data plane automatically as serving
// keys.
type Server struct {
	cfg    ServerConfig
	gr     *group.Group
	codec  *msg.Codec
	tnode  *transport.Node
	eng    *engine.Engine
	svc    *dataplane.Service
	dps    *dataplane.Server
	st     *store.Store
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	msrv   *telemetry.Server
	events chan SessionEvent
	fails  chan SessionFailure
	closed chan struct{}
}

// buildCodec registers every protocol decoder.
func buildCodec(gr *group.Group) (*msg.Codec, error) {
	codec := msg.NewCodec()
	for _, reg := range []func() error{
		func() error { return vss.RegisterCodec(codec, gr) },
		func() error { return dkg.RegisterCodec(codec) },
		func() error { return rbc.RegisterCodec(codec) },
		func() error { return proactive.RegisterCodec(codec) },
		func() error { return groupmod.RegisterCodec(codec, gr) },
		func() error { return dataplane.RegisterCodec(codec, gr) },
	} {
		if err := reg(); err != nil {
			return nil, err
		}
	}
	return codec, nil
}

// Serve starts one deployment node. It runs the same profile as New;
// the options carry the same certificate and serving settings
// (WithCertificates, WithAdmission, …), and WithSeed is ignored — a
// real node draws from crypto/rand.
func Serve(cfg ServerConfig, opts ...Option) (*Server, error) {
	if cfg.Self < 1 || cfg.Listen == "" || len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("%w: missing self/listen/peers", ErrBadOptions)
	}
	if err := cfg.Roster.validate(); err != nil {
		return nil, err
	}
	nc, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	gr := group.P256()
	dir, err := cfg.Keys.directory()
	if err != nil {
		return nil, err
	}
	if len(cfg.Keys.TransportSecret) == 0 {
		return nil, fmt.Errorf("%w: empty transport secret", ErrBadOptions)
	}
	codec, err := buildCodec(gr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		gr:     gr,
		codec:  codec,
		events: make(chan SessionEvent, 64),
		fails:  make(chan SessionFailure, 16),
		closed: make(chan struct{}),
	}

	// Telemetry is all-or-nothing per node: with MetricsListen unset
	// the registry and tracer stay nil, the bundle constructors below
	// return all-nil instruments and every emit site no-ops. The
	// bundles are created unconditionally so the wiring is identical
	// either way.
	if cfg.MetricsListen != "" {
		s.reg = telemetry.NewRegistry()
		s.tracer = telemetry.NewTracer(telemetry.TracerOptions{})
	}

	peers := make([]transport.Peer, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		peers = append(peers, transport.Peer{ID: p.ID, Addr: p.Addr})
	}
	tcfg := transport.Config{
		Self:      cfg.Self,
		Listen:    cfg.Listen,
		Peers:     peers,
		Codec:     codec,
		Secret:    cfg.Keys.TransportSecret,
		TimerUnit: time.Millisecond,
		Coalesce:  true,
	}

	// One verifier for all sessions: the directory memoizes signature
	// verdicts, so proof sets shared across messages and sessions are
	// paid for once.
	dir.EnableVerifyCache(0)
	var vpool *verify.Pool
	if cfg.VerifyWorkers > 0 {
		vpool = verify.NewPool(cfg.VerifyWorkers)
		spec := verify.NewSpeculator(vpool, dir)
		tcfg.Observer = func(_ msg.SessionID, from msg.NodeID, body msg.Body) {
			spec.Observe(from, body)
		}
		// One parallelism budget: the pool's workers (plus session
		// lanes) already aim to saturate the cores; keep the group
		// kernels' own multi-exp fan-out sequential per call.
		group.SetParallelism(1)
	}
	shard := cfg.ShardSessions
	if shard && cfg.StateDir != "" {
		// Durable-state checkpoints snapshot runners from the main
		// loop and must not race concurrently dispatching lanes.
		// Never silently: callers sizing a deployment around session
		// lanes need to know the knob was overridden.
		logf("node %d: ShardSessions disabled: durable state checkpoints (StateDir) require the single event loop", cfg.Self)
		shard = false
	}
	tcfg.ShardSessions = shard

	if cfg.StateDir != "" {
		syncEvery := cfg.SyncEvery
		if syncEvery == 0 {
			syncEvery = 1
		}
		st, err := store.Open(cfg.StateDir, store.Options{
			SyncEvery: syncEvery,
			Metrics:   telemetry.NewStoreMetrics(s.reg),
		})
		if err != nil {
			closePool(vpool)
			return nil, err
		}
		s.st = st
	}

	tnode, err := transport.Listen(tcfg)
	if err != nil {
		closePool(vpool)
		s.closeStore()
		return nil, err
	}
	s.tnode = tnode

	leader := cfg.InitialLeader
	if leader == 0 {
		leader = 1
	}
	timeoutBase := cfg.TimeoutBase
	if timeoutBase == 0 {
		timeoutBase = 10_000 // 10s at 1ms/unit before the first leader change
	}
	params := dkg.Params{
		Group:          gr,
		N:              cfg.Roster.N,
		T:              cfg.Roster.T,
		F:              cfg.Roster.F,
		DedupDealings:  true,
		CompressedWire: true,
		Certificates:   nc.certificates,
		Directory:      dir,
		SignKey:        cfg.Keys.Private,
		InitialLeader:  leader,
		TimeoutBase:    timeoutBase,
		Metrics:        telemetry.NewProtocolMetrics(s.reg),
		Trace:          s.tracer,
	}
	if vpool != nil {
		params.Parallel = vpool
	}

	// The data-plane service rides the same transport on its reserved
	// session. The handler is registered before the service exists (the
	// port is part of its config), so it late-binds.
	peerIDs := make([]msg.NodeID, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		peerIDs = append(peerIDs, p.ID)
	}
	dh := &dataServiceHandler{}
	port, err := tnode.RegisterSession(dataplane.PeerSession, dh)
	if err != nil {
		s.teardown(vpool)
		return nil, err
	}
	dcfg := dataplane.Config{
		Group: gr,
		Self:  cfg.Self,
		N:     cfg.Roster.N,
		T:     cfg.Roster.T,
		Peers: peerIDs,
		Send:  func(to msg.NodeID, body msg.Body) { port.Send(to, body) },
		Defer: func(d time.Duration, fn func()) {
			time.AfterFunc(d, fn)
		},
		Rand:       rand.Reader,
		Rate:       nc.rate,
		Burst:      nc.burst,
		MaxPending: nc.maxPending,
		MaxBatch:   nc.maxBatch,
		Parallel:   params.Parallel,
	}
	svc := dataplane.NewService(dcfg)
	s.svc = svc
	dh.svc = svc

	ecfg := engine.Config{
		Fabric: engine.NewTransportFabric(tnode),
		Factory: func(sid msg.SessionID, rt engine.Runtime) (engine.Runner, error) {
			return dkg.NewNode(params, uint64(sid), cfg.Self, rt, dkg.Options{})
		},
		Start: func(sid msg.SessionID, r engine.Runner) error {
			return r.(*dkg.Node).Start(rand.Reader)
		},
		MaxActive:   cfg.MaxActive,
		OnCompleted: s.onCompleted,
		OnFailed: func(sid msg.SessionID, err error) {
			s.fail(uint64(sid), err)
		},
		Metrics: telemetry.NewEngineMetrics(s.reg),
		Trace:   s.tracer,
	}
	if s.st != nil {
		snapEvery := cfg.SnapshotEvery
		if snapEvery == 0 {
			snapEvery = 64
		}
		ecfg.Journal = s.st
		ecfg.Codec = codec
		ecfg.Self = cfg.Self
		ecfg.SnapshotEvery = snapEvery
		ecfg.RestoreRunner = func(sid msg.SessionID, rt engine.Runtime, snap []byte) (engine.Runner, error) {
			return dkg.RestoreNode(params, uint64(sid), cfg.Self, rt, dkg.Options{}, codec, snap)
		}
		// Completed sessions keep serving protocol-level help
		// requests (§5.3) for crashed peers that restart later, which
		// is the one thing a retained runner is reachable for; an
		// in-memory node releases its runners on completion.
		ecfg.KeepCompleted = true
		ecfg.LingerCompleted = true
	}
	if vpool != nil {
		// The engine owns the pool's lifecycle.
		ecfg.VerifyPool = vpool
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		s.teardown(vpool)
		return nil, err
	}
	s.eng = eng

	if cfg.ClientListen != "" {
		ln, err := net.Listen("tcp", cfg.ClientListen)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.dps = dataplane.NewServer(ln, svc)
	}

	if s.reg != nil {
		// Scrape-time collectors over the subsystems that already keep
		// their own cheap stats; registered last so they observe the
		// fully assembled node.
		tnode.RegisterMetrics(s.reg)
		verify.RegisterMetrics(s.reg, vpool, dir)
		svc.RegisterMetrics(s.reg)
		msrv, err := telemetry.ListenAndServe(cfg.MetricsListen, telemetry.ServeOptions{
			Registry: s.reg,
			Tracer:   s.tracer,
			Keys:     func() any { return svc.KeysSnapshot() },
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.msrv = msrv
	}
	return s, nil
}

func closePool(p *verify.Pool) {
	if p != nil {
		p.Close()
	}
}

func (s *Server) closeStore() {
	if s.st != nil {
		s.st.Close()
		s.st = nil
	}
}

func (s *Server) teardown(vpool *verify.Pool) {
	if s.tnode != nil {
		s.tnode.Close()
	}
	closePool(vpool)
	s.closeStore()
}

// dataServiceHandler adapts the data-plane service to the transport
// Handler surface, late-binding the service so the session port can
// be part of the service's configuration.
type dataServiceHandler struct{ svc *dataplane.Service }

func (h *dataServiceHandler) HandleMessage(from msg.NodeID, body msg.Body) {
	if h.svc != nil {
		h.svc.HandleMessage(from, body)
	}
}
func (h *dataServiceHandler) HandleTimer(uint64) {}
func (h *dataServiceHandler) HandleRecover()     {}

// onCompleted routes every finished DKG session: it becomes a serving
// key and is reported on Events.
func (s *Server) onCompleted(sid msg.SessionID, r engine.Runner) {
	ev := r.(*dkg.Node).Result()
	// Re-installation after a restore is a harmless no-op error.
	_, _ = s.svc.InstallKey(sid, ev.Share, ev.V)
	select {
	case s.events <- SessionEvent{
		Session:   ev.Tau,
		FinalView: ev.FinalView,
		Q:         ev.Q,
		PublicKey: ev.PublicKey,
		Share:     ev.Share,
	}:
	case <-s.closed:
	}
}

func (s *Server) fail(sid uint64, err error) {
	select {
	case s.fails <- SessionFailure{Session: sid, Err: err}:
	case <-s.closed:
	}
}

// Addr returns the peer-transport listen address.
func (s *Server) Addr() string { return s.tnode.Addr() }

// ClientAddr returns the client-protocol listen address ("" when no
// client endpoint was configured).
func (s *Server) ClientAddr() string {
	if s.dps == nil {
		return ""
	}
	return s.dps.Addr()
}

// Start submits one DKG session (τ = sid). Completion arrives on
// Events, failure on Failures.
func (s *Server) Start(sid uint64) {
	s.tnode.Do(func() {
		if err := s.eng.Submit(msg.SessionID(sid)); err != nil {
			s.fail(sid, err)
		}
	})
}

// Events delivers completed primary sessions.
func (s *Server) Events() <-chan SessionEvent { return s.events }

// Failures delivers sessions that could not run.
func (s *Server) Failures() <-chan SessionFailure { return s.fails }

// Restore resumes journaled sessions from the state directory,
// returning their IDs. Sessions that restore as already completed
// fire Events during the call, so callers must drain concurrently.
// Signing nonce pairs are never journaled: a restarted node holds none,
// refuses whatever it issued before, and issues new ones.
func (s *Server) Restore() ([]uint64, error) {
	if s.st == nil {
		return nil, nil
	}
	type outcome struct {
		sids []msg.SessionID
		err  error
	}
	ch := make(chan outcome, 1)
	s.tnode.Do(func() {
		sids, err := s.eng.Restore()
		ch <- outcome{sids, err}
	})
	out := <-ch
	if out.err != nil {
		return nil, out.err
	}
	ids := make([]uint64, len(out.sids))
	for i, sid := range out.sids {
		ids[i] = uint64(sid)
	}
	return ids, nil
}

// Checkpoint snapshots every live session into the state directory
// and syncs it, for a clean shutdown that the next incarnation can
// resume from.
func (s *Server) Checkpoint() error {
	if s.st == nil {
		return nil
	}
	ch := make(chan error, 1)
	s.tnode.Do(func() { ch <- s.eng.Checkpoint() })
	if err := <-ch; err != nil {
		return err
	}
	return s.st.Sync()
}

// EngineStats returns the session engine's lifecycle accounting.
func (s *Server) EngineStats() EngineStats { return s.eng.Stats() }

// ServiceStats returns this node's data-plane counters.
func (s *Server) ServiceStats() ServiceStats { return s.svc.Stats() }

// WireStats returns the cumulative bytes-on-wire books.
func (s *Server) WireStats() (WireStats, bool) { return s.eng.WireStats() }

// MetricsAddr returns the introspection endpoint's listen address
// ("" when MetricsListen was not configured).
func (s *Server) MetricsAddr() string {
	if s.msrv == nil {
		return ""
	}
	return s.msrv.Addr()
}

// SessionSummary is the tracer-derived state of one session, as
// served on /sessions.
type SessionSummary = telemetry.SessionSummary

// SessionSummaries returns the telemetry view of every retained
// session (nil without MetricsListen).
func (s *Server) SessionSummaries() []SessionSummary { return s.tracer.Sessions() }

// SessionTimeline renders the last n traced events of one session for
// failure diagnostics ("" without MetricsListen).
func (s *Server) SessionTimeline(sid uint64, n int) string {
	if s.tracer == nil {
		return ""
	}
	return s.tracer.FormatTimeline(sid, n)
}

// Close shuts the node down: client endpoint, data plane, engine
// (which joins the verification pool), transport and durable state.
func (s *Server) Close() {
	select {
	case <-s.closed:
		return
	default:
		close(s.closed)
	}
	if s.msrv != nil {
		s.msrv.Close()
	}
	if s.dps != nil {
		s.dps.Close()
	}
	s.svc.Close()
	if s.eng != nil {
		s.eng.Close()
	}
	s.tnode.Close()
	s.closeStore()
}

// Client talks the client request protocol to a serving node: it
// holds no share and sees no secrets, only requests operations under
// installed keys and receives aggregated results.
type Client struct {
	c *dataplane.Client
}

// Dial connects to a node's client endpoint and performs the
// version/group handshake.
func Dial(addr string) (*Client, error) {
	c, err := dataplane.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// GroupName reports the server's group parameter set.
func (c *Client) GroupName() string { return c.c.GroupName() }

// Roster reports the server's group size and threshold.
func (c *Client) Roster() (n, t int) { return c.c.Roster() }

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

// KeyDescription is the public description of a served key.
type KeyDescription struct {
	ID        uint64
	PublicKey Element
	N, T      int
	State     KeyState
}

// KeyInfo fetches a served key's public description.
func (c *Client) KeyInfo(ctx context.Context, key uint64) (KeyDescription, error) {
	info, err := c.c.KeyInfo(ctx, key)
	if err != nil {
		return KeyDescription{}, err
	}
	return KeyDescription{
		ID:        uint64(info.ID),
		PublicKey: info.PublicKey,
		N:         info.N,
		T:         info.T,
		State:     info.State,
	}, nil
}

// Sign requests a threshold signature on message under the key.
func (c *Client) Sign(ctx context.Context, key uint64, message []byte) (Signature, error) {
	sg, err := c.c.Sign(ctx, key, message)
	if err != nil {
		return Signature{}, err
	}
	return Signature{R: sg.R, Sigma: sg.Sigma}, nil
}

// Verify checks a signature against a key's public key (from
// KeyInfo) using the server's group parameters.
func (c *Client) Verify(pk Element, message []byte, s Signature) bool {
	return thresh.Verify(c.c.Group(), pk, message, thresh.Signature{R: s.R, Sigma: s.Sigma})
}

// Encrypt encrypts a group element under a served key's public key.
func (c *Client) Encrypt(pk Element, m Element) (Ciphertext, error) {
	ct, err := thresh.Encrypt(c.c.Group(), pk, m, rand.Reader)
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{C1: ct.C1, C2: ct.C2}, nil
}

// RandomElement returns a uniformly random group element (a convenient
// test plaintext for Encrypt/Decrypt round-trips).
func (c *Client) RandomElement() (Element, error) {
	gr := c.c.Group()
	k, err := gr.RandScalar(rand.Reader)
	if err != nil {
		return nil, err
	}
	return gr.GExp(k), nil
}

// Decrypt requests verified threshold decryption of ct.
func (c *Client) Decrypt(ctx context.Context, key uint64, ct Ciphertext) (Element, error) {
	return c.c.Decrypt(ctx, key, thresh.Ciphertext{C1: ct.C1, C2: ct.C2})
}

// Beacon requests one random-beacon round and checks that the output is
// the hash of the returned coin value before returning it.
func (c *Client) Beacon(ctx context.Context, key uint64, round uint64) (BeaconResult, error) {
	out, err := c.c.Beacon(ctx, key, round)
	if err != nil {
		return BeaconResult{}, err
	}
	if out.Output != thresh.BeaconOutput(c.c.Group(), round, out.Value) {
		return BeaconResult{}, fmt.Errorf("hybriddkg: beacon round %d output does not match its value", round)
	}
	return out, nil
}
