// Package dkg implements the distributed key generation protocol of
// Kate & Goldberg (ICDCS 2009), Figures 2 and 3: n parallel extended
// HybridVSS sharings, a leader that reliably broadcasts an agreed set
// Q of t+1 completed sharings (optimistic phase), and a signed
// leader-change protocol that replaces faulty leaders (pessimistic
// phase). Each node's final key share is the sum of its shares from
// the sharings in Q; the commitment to the joint secret is the
// entrywise product of the dealers' commitment matrices.
//
// Deviations from the one-page pseudocode, chosen to pin down corner
// cases the figures leave open (and documented in DESIGN.md):
//
//   - Leaders are identified by monotonically increasing view numbers
//     (leader of view v is node ((v−1) mod n)+1), replacing the cyclic
//     permutation π. This is the standard disambiguation once leader
//     changes can wrap around.
//   - A node sends a DKG ready message for at most one proposal per
//     session ("locking"). The figures guard echoes with "Q = ∅ or
//     Q = Q"; applying the same guard to ready sending makes the
//     quorum-intersection safety argument airtight: two conflicting
//     decisions would need 2(n−t−f) ready slots with each honest node
//     providing at most one, impossible for n ≥ 3t+2f+1.
//   - A node that has sent lead-ch for view w re-escalates to view
//     w+1 with a doubled timeout if no leader is installed (the
//     delay(t) growth of §2.1 applied per view, as in PBFT). Without
//     this the figures rely on other nodes' lead-ch messages alone.
//   - A session may agree on more than t+1 sharings (Params.QSize), as
//     share renewal across a threshold decrease needs (§6.4).
//
// Liveness matches the paper's own claim: it holds under the weak
// synchrony assumption once an honest, finally-up leader is reached;
// guaranteed asynchronous termination would require the randomized
// agreement the paper explicitly declines to use (§4).
package dkg

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sort"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/telemetry"
	"hybriddkg/internal/vss"
)

// Errors returned by the DKG layer.
var (
	ErrBadParams      = errors.New("dkg: invalid parameters")
	ErrAlreadyStarted = errors.New("dkg: already started")
)

// Runtime is the node's I/O surface: message sending plus the timer
// service of the paper's system design (§7). *simnet.Env satisfies it;
// the TCP transport provides its own implementation.
type Runtime interface {
	Send(to msg.NodeID, body msg.Body)
	SetTimer(id uint64, delay int64)
	StopTimer(id uint64)
}

// Params configures a DKG session. The DKG always runs HybridVSS in
// extended (signed-ready) mode, so the signature directory and the
// node's signing key are mandatory.
type Params struct {
	Group   *group.Group
	N, T, F int
	// DMax is d(κ), the crash budget driving help-service limits.
	DMax int
	// HashedEcho configures the embedded VSS instances.
	HashedEcho bool
	// DedupDealings configures the embedded VSS instances to reference
	// commitment matrices by digest after the dealer's send, with
	// pull-based fetch for nodes that missed the full copy (see
	// vss.Params.DedupDealings).
	DedupDealings bool
	// CompressedWire selects the wire-format-v2 commitment encoding
	// (compressed group elements) on every matrix the embedded VSS
	// instances emit (see vss.Params.CompressedWire).
	CompressedWire bool
	// DisableBatch turns off the embedded VSS instances' batched point
	// verification (see vss.Params.DisableBatch); batching is on by
	// default.
	DisableBatch bool
	// Parallel, when set, is the worker pool batch flushes use to
	// build group equations concurrently (see vss.Params.Parallel).
	Parallel commit.Parallel
	// Directory and SignKey provide message authentication.
	Directory *sig.Directory
	SignKey   []byte
	// InitialLeader is the leader of the first view (default node 1).
	InitialLeader msg.NodeID
	// TimeoutBase is the delay(t) base in virtual time units; the
	// per-view timeout doubles with each leader change (default 5000).
	TimeoutBase int64
	// QSize is the number of completed sharings a proposal must
	// contain. The default T+1 is Fig. 2's choice for fresh key
	// generation; share renewal across a threshold decrease needs
	// t_old+1 dealers so the Lagrange combination can still
	// interpolate the previous (higher-degree) sharing (§6.4).
	QSize int
	// Metrics, when set, receives the per-phase protocol counts
	// (quorum crossings, timeouts, leader changes, help service); the
	// same bundle is threaded into every embedded VSS instance. Nil
	// instruments are no-ops.
	Metrics *telemetry.ProtocolMetrics
	// Trace, when set, records phase transitions, quorum crossings
	// and leader changes into the per-session timeline keyed by τ.
	Trace *telemetry.Tracer
	// Certificates replaces the all-to-all echo/ready floods — both the
	// DKG's own proposal quorums and every embedded VSS instance — with
	// relay-assembled quorum certificates: nodes send their signed
	// echo/ready to a small deterministically-sampled relay committee,
	// a relay that collects a quorum assembles one certificate and
	// multicasts it, and receivers verify the whole certificate in a
	// single batched multi-exponentiation. Message complexity per
	// quorum drops from Θ(n²) to O(n·polylog n). If no certificate
	// arrives before the fallback timeout the node floods its
	// suppressed classic messages, so liveness degrades gracefully to
	// the flood path when relays are slow or corrupt.
	Certificates bool
}

// EchoThreshold returns ⌈(n+t+1)/2⌉.
func (p Params) EchoThreshold() int { return (p.N + p.T + 2) / 2 }

// ReadyThreshold returns n − t − f.
func (p Params) ReadyThreshold() int { return p.N - p.T - p.F }

// Validate checks the resilience bound and required fields.
func (p Params) Validate() error {
	if p.Group == nil {
		return fmt.Errorf("%w: nil group", ErrBadParams)
	}
	if p.N <= 0 || p.T < 0 || p.F < 0 || p.N < 3*p.T+2*p.F+1 {
		return fmt.Errorf("%w: n=%d t=%d f=%d violates n ≥ 3t+2f+1", ErrBadParams, p.N, p.T, p.F)
	}
	if p.Directory == nil || len(p.SignKey) == 0 {
		return fmt.Errorf("%w: missing directory or signing key", ErrBadParams)
	}
	if p.InitialLeader < 0 || int(p.InitialLeader) > p.N {
		return fmt.Errorf("%w: initial leader %d", ErrBadParams, p.InitialLeader)
	}
	if p.TimeoutBase < 0 {
		return fmt.Errorf("%w: negative timeout", ErrBadParams)
	}
	if p.QSize != 0 && (p.QSize < p.T+1 || p.QSize > p.ReadyThreshold()) {
		return fmt.Errorf("%w: QSize %d outside [t+1, n-t-f] = [%d, %d]",
			ErrBadParams, p.QSize, p.T+1, p.ReadyThreshold())
	}
	return nil
}

func (p *Params) applyDefaults() {
	if p.InitialLeader == 0 {
		p.InitialLeader = 1
	}
	if p.TimeoutBase == 0 {
		p.TimeoutBase = 5000
	}
	if p.DMax == 0 {
		p.DMax = p.N
	}
	if p.QSize == 0 {
		p.QSize = p.T + 1
	}
}

// CompletedEvent is the (L̄, τ, DKG-completed, C, s_i) output. V is
// the Feldman vector commitment to the joint sharing polynomial and is
// always set; C is the full matrix product and is set only by the
// standard summation combiner (renewal-style combinations produce
// vector commitments directly, §5.2).
type CompletedEvent struct {
	Tau       uint64
	FinalView uint64
	Q         []msg.NodeID
	C         *commit.Matrix
	V         *commit.Vector
	Share     *big.Int
	PublicKey group.Element
}

// CombineResult is what a Combiner produces from the decided set.
type CombineResult struct {
	Share *big.Int
	C     *commit.Matrix // optional
	V     *commit.Vector // required
}

// Combiner turns the decided sharings into the node's final share and
// commitment. The default sums shares and multiplies commitment
// matrices (fresh key generation, Fig. 2); share renewal and node
// addition install Lagrange combiners instead (§5.2, §6.2).
type Combiner func(self msg.NodeID, q []msg.NodeID, events map[msg.NodeID]vss.SharedEvent) (CombineResult, error)

// Options bundles callbacks.
type Options struct {
	// OnCompleted fires exactly once when the DKG completes locally.
	OnCompleted func(CompletedEvent)
	// ShareSource overrides the dealt secret (share renewal and node
	// addition reshare an existing value instead of a fresh random
	// one). Nil means a fresh uniform secret.
	ShareSource *big.Int
	// ValidateDealing vets a completed sharing before it may enter
	// Q̂ or satisfy the decided set. Share renewal uses it to check
	// the resharing's constant term against the dealer's previous
	// share commitment; nil accepts everything.
	ValidateDealing func(ev vss.SharedEvent) bool
	// Combine overrides the default summation combiner.
	Combine Combiner
}

// qstate tracks echo/ready quorums for one proposal digest.
type qstate struct {
	prop   *Proposal // slim
	digest [32]byte
	echo   tally
	ready  tally
}

// tally counts one phase of one proposal digest by link-authenticated
// sender, as Fig. 1's counters do. Every counted sender's signature is
// kept in arrival order, unchecked until the lock draws an M set from
// them (quorum).
type tally struct {
	seen    map[msg.NodeID]bool
	sigs    []SignedQ // the counted senders' signatures
	checked int       // leading sigs verified valid
	count   int       // senders seen, less those whose signature failed
}

// add counts from's first message of the phase.
func (t *tally) add(from msg.NodeID, sigBytes []byte) bool {
	if t.seen[from] {
		return false
	}
	t.seen[from] = true
	t.count++
	t.sigs = append(t.sigs, SignedQ{Signer: from, Sig: sigBytes})
	return true
}

// quorum returns the first need valid signatures in arrival order, or
// nil while fewer verify. It checks only the unchecked tail, no further
// than it takes, and never self's own signature. An invalid signature is
// dropped and its sender loses its counted slot; it stays seen, so it
// cannot be counted again.
func (t *tally) quorum(dir *sig.Directory, self msg.NodeID, transcript []byte, need int) []SignedQ {
	for t.checked < need && t.checked < len(t.sigs) {
		s := t.sigs[t.checked]
		if s.Signer == self || dir.Verify(int64(s.Signer), transcript, s.Sig) {
			t.checked++
			continue
		}
		t.sigs = slices.Delete(t.sigs, t.checked, t.checked+1)
		t.count--
	}
	if t.checked < need {
		return nil
	}
	return t.sigs[:need]
}

// lockState is the node's single allowed ready-target (Q, M).
type lockState struct {
	prop   *Proposal // slim
	digest [32]byte
	kind   ProofKind // KindEcho or KindReady (the M set's flavour)
	sigs   []SignedQ
}

// Node is one DKG session endpoint.
type Node struct {
	params  Params
	tau     uint64
	self    msg.NodeID
	runtime Runtime

	opts Options

	started bool

	// Embedded extended HybridVSS instances, one per dealer.
	vssNodes map[msg.NodeID]*vss.Node
	vssDone  map[msg.NodeID]vss.SharedEvent

	// View state.
	curView      uint64
	sendSeen     map[uint64]bool // one proposal processed per view
	proposedView map[uint64]bool // leader-side dedup
	leaderProof  []SignedQ       // lead-ch sigs legitimising curView

	// Quorum state per proposal digest.
	qstates map[[32]byte]*qstate
	lock    *lockState

	// Adopted material from lead-ch messages.
	adoptedM   *Proposal // an M-kind proposal (echo/ready proof)
	adoptedVSS *Proposal // an R̂-kind proposal

	// Leader change.
	lcVotes  map[uint64]map[msg.NodeID][]byte
	lcJoined bool
	lcSent   map[uint64]bool
	lcCount  int // leader changes observed (for experiments)

	// Decision and completion.
	decided *Proposal
	done    bool
	result  *CompletedEvent

	// Recovery bookkeeping (DKG-level B set and help counters).
	outLog    map[msg.NodeID][]msg.Body
	helpFrom  map[msg.NodeID]int
	helpTotal int

	timerArmed  bool
	armedTimers map[uint64]bool

	// Certificate mode (Params.Certificates).
	dcerts          map[[32]byte]*dcertState
	certFloodActive bool       // fallback latched: behave like flood mode
	certTimerArmed  bool       // fallback timer armed (lazily, once)
	certSuppressed  []msg.Body // classic echo/ready withheld by cert mode
}

// NewNode constructs a DKG endpoint for session tau.
func NewNode(params Params, tau uint64, self msg.NodeID, runtime Runtime, opts Options) (*Node, error) {
	params.applyDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if self < 1 || int(self) > params.N {
		return nil, fmt.Errorf("%w: self index %d", ErrBadParams, self)
	}
	if runtime == nil {
		return nil, fmt.Errorf("%w: nil runtime", ErrBadParams)
	}
	if params.Metrics == nil {
		params.Metrics = &telemetry.ProtocolMetrics{}
	}
	nd := &Node{
		params:       params,
		tau:          tau,
		self:         self,
		runtime:      runtime,
		opts:         opts,
		vssNodes:     make(map[msg.NodeID]*vss.Node, params.N),
		vssDone:      make(map[msg.NodeID]vss.SharedEvent, params.N),
		curView:      uint64(params.InitialLeader),
		sendSeen:     make(map[uint64]bool),
		proposedView: make(map[uint64]bool),
		qstates:      make(map[[32]byte]*qstate),
		lcVotes:      make(map[uint64]map[msg.NodeID][]byte),
		lcSent:       make(map[uint64]bool),
		outLog:       make(map[msg.NodeID][]msg.Body, params.N),
		helpFrom:     make(map[msg.NodeID]int, params.N),
		armedTimers:  make(map[uint64]bool),
		dcerts:       make(map[[32]byte]*dcertState),
	}
	vssParams := vss.Params{
		Group:          params.Group,
		N:              params.N,
		T:              params.T,
		F:              params.F,
		DMax:           params.DMax,
		HashedEcho:     params.HashedEcho,
		DedupDealings:  params.DedupDealings,
		CompressedWire: params.CompressedWire,
		DisableBatch:   params.DisableBatch,
		Parallel:       params.Parallel,
		Extended:       true,
		Directory:      params.Directory,
		SignKey:        params.SignKey,
		Metrics:        params.Metrics,
		Trace:          params.Trace,
		TraceSID:       tau,
		Certificates:   params.Certificates,
	}
	for d := 1; d <= params.N; d++ {
		dealer := msg.NodeID(d)
		session := vss.SessionID{Dealer: dealer, Tau: tau}
		vnode, err := vss.NewNode(vssParams, session, self, runtime, vss.Options{
			OnShared: func(ev vss.SharedEvent) { nd.onVSSShared(ev) },
		})
		if err != nil {
			return nil, err
		}
		nd.vssNodes[dealer] = vnode
	}
	return nd, nil
}

// Leader returns the leader of a view: node ((v−1) mod n) + 1.
func (nd *Node) Leader(view uint64) msg.NodeID {
	return msg.NodeID((view-1)%uint64(nd.params.N) + 1)
}

// CurrentView returns the node's current view number.
func (nd *Node) CurrentView() uint64 { return nd.curView }

// LeaderChanges returns how many leader installs this node performed.
func (nd *Node) LeaderChanges() int { return nd.lcCount }

// Done reports local completion.
func (nd *Node) Done() bool { return nd.done }

// Result returns the completion event (nil before Done).
func (nd *Node) Result() *CompletedEvent { return nd.result }

// VSSNode exposes the embedded sharing for a dealer (used by the Rec
// protocol driver and by tests).
func (nd *Node) VSSNode(dealer msg.NodeID) *vss.Node { return nd.vssNodes[dealer] }

// Start begins the session: the node deals its own extended HybridVSS
// sharing of a fresh random secret (or Options.ShareSource).
func (nd *Node) Start(rand io.Reader) error {
	if nd.started {
		return ErrAlreadyStarted
	}
	nd.started = true
	nd.armCertFallback()
	secret := nd.opts.ShareSource
	if secret == nil {
		s, err := nd.params.Group.RandScalar(rand)
		if err != nil {
			return fmt.Errorf("dkg: sample secret: %w", err)
		}
		secret = s
	}
	return nd.vssNodes[nd.self].ShareSecret(secret, rand)
}

// Session returns the engine-level session identifier this node runs
// under. The DKG's τ counter doubles as the session id of the
// multiplexed runtime, so every protocol message already carries it —
// the protocol-level defence in depth behind the router's demux.
func (nd *Node) Session() msg.SessionID { return msg.SessionID(nd.tau) }

// HandleMessage is an alias for Handle matching the runtime handler
// interfaces (simnet.Handler, transport.Handler, engine.Runner), so a
// dkg.Node can be registered with a session router directly.
func (nd *Node) HandleMessage(from msg.NodeID, body msg.Body) { nd.Handle(from, body) }

// Handle dispatches one network message (DKG-level or embedded VSS).
func (nd *Node) Handle(from msg.NodeID, body msg.Body) {
	nd.armCertFallback()
	switch m := body.(type) {
	case *SendMsg:
		nd.handleSend(from, m)
	case *EchoMsg:
		nd.handleEcho(from, m)
	case *ReadyMsg:
		nd.handleReady(from, m)
	case *LeadChMsg:
		nd.handleLeadCh(from, m)
	case *HelpMsg:
		nd.handleHelp(from, m)
	case *CertSignMsg:
		nd.handleCertSign(from, m)
	case *CertMsg:
		nd.handleCert(from, m)
	case *vss.CertSignMsg:
		nd.routeVSS(from, m.Session, body)
	case *vss.CertMsg:
		nd.routeVSS(from, m.Session, body)
	case *vss.SendMsg:
		nd.routeVSS(from, m.Session, body)
	case *vss.EchoMsg:
		nd.routeVSS(from, m.Session, body)
	case *vss.ReadyMsg:
		nd.routeVSS(from, m.Session, body)
	case *vss.HelpMsg:
		nd.routeVSS(from, m.Session, body)
	case *vss.RecShareMsg:
		nd.routeVSS(from, m.Session, body)
	}
}

func (nd *Node) routeVSS(from msg.NodeID, session vss.SessionID, body msg.Body) {
	if session.Tau != nd.tau {
		return
	}
	vnode, ok := nd.vssNodes[session.Dealer]
	if !ok {
		return
	}
	vnode.Handle(from, body)
	// A leader holding enough completed sharings that could not propose
	// because one R_d set was short of valid signatures (ownQhat) tries
	// again on every ready that may have topped it up.
	if _, ready := body.(*vss.ReadyMsg); ready && vnode.Done() &&
		nd.Leader(nd.curView) == nd.self && len(nd.vssDone) >= nd.params.QSize {
		nd.proposeAsLeader()
	}
}

// onVSSShared accumulates Q̂/R̂ (Fig. 2 "upon shared") and drives the
// proposal/timer logic.
func (nd *Node) onVSSShared(ev vss.SharedEvent) {
	if nd.opts.ValidateDealing != nil && !nd.opts.ValidateDealing(ev) {
		// A completed but invalid dealing (e.g. a renewal resharing
		// whose constant term does not match the dealer's previous
		// share) never enters Q̂ and never satisfies a decided set:
		// safety over liveness, as §5.1 prescribes.
		return
	}
	nd.vssDone[ev.Session.Dealer] = ev
	if len(nd.vssDone) == nd.params.QSize && nd.decided == nil && !nd.done {
		if nd.Leader(nd.curView) == nd.self {
			nd.proposeAsLeader()
		} else if !nd.timerArmed {
			nd.armTimer()
		}
	}
	// A leader that was waiting for material proposes as soon as it
	// has enough completions.
	if nd.Leader(nd.curView) == nd.self && len(nd.vssDone) >= nd.params.QSize {
		nd.proposeAsLeader()
	}
	nd.tryFinish()
}

// bestMaterial returns the node's strongest proposal material:
// lock > adopted M set > own Q̂/R̂ > adopted Q̂/R̂.
func (nd *Node) bestMaterial() *Proposal {
	if nd.lock != nil {
		return &Proposal{
			Q:       nd.lock.prop.Q,
			CHashes: nd.lock.prop.CHashes,
			Kind:    nd.lock.kind,
			QSigs:   nd.lock.sigs,
		}
	}
	if nd.adoptedM != nil {
		return nd.adoptedM
	}
	if own := nd.ownQhat(); own != nil {
		return own
	}
	return nd.adoptedVSS
}

// ownQhat assembles a KindVSS proposal from the first QSize locally
// completed sharings (deterministically: lowest dealer indices) whose
// R_d set holds n−t−f valid signatures. The sets are verified here,
// where they are about to leave the node (vss.Node.ReadyProof); a
// sharing whose set is still short is passed over.
func (nd *Node) ownQhat() *Proposal {
	if len(nd.vssDone) < nd.params.QSize {
		return nil
	}
	dealers := make([]msg.NodeID, 0, len(nd.vssDone))
	for d := range nd.vssDone {
		dealers = append(dealers, d)
	}
	sort.Slice(dealers, func(i, j int) bool { return dealers[i] < dealers[j] })
	p := &Proposal{Kind: KindVSS}
	for _, d := range dealers {
		proof := nd.vssNodes[d].ReadyProof()
		if proof == nil {
			continue
		}
		p.Q = append(p.Q, d)
		p.CHashes = append(p.CHashes, nd.vssDone[d].C.Hash())
		p.VSSProofs = append(p.VSSProofs, proof)
		if len(p.Q) == nd.params.QSize {
			return p
		}
	}
	return nil
}

// proposeAsLeader broadcasts the send message for the current view.
func (nd *Node) proposeAsLeader() {
	if nd.done || nd.proposedView[nd.curView] {
		return
	}
	material := nd.bestMaterial()
	if material == nil {
		return // wait for more VSS completions
	}
	nd.proposedView[nd.curView] = true
	out := &SendMsg{Tau: nd.tau, View: nd.curView, Prop: material, LeaderProof: nd.leaderProof}
	for j := 1; j <= nd.params.N; j++ {
		nd.sendLogged(msg.NodeID(j), out)
	}
}

// armTimer starts the per-view timeout with exponential growth (the
// delay(t) function of §2.1).
func (nd *Node) armTimer() {
	nd.timerArmed = true
	nd.setViewTimer(nd.curView, nd.timeoutFor(nd.curView))
}

func (nd *Node) setViewTimer(id uint64, delay int64) {
	nd.armedTimers[id] = true
	nd.runtime.SetTimer(id, delay)
}

// stopAllTimers cancels every pending view timer (on install and on
// decision).
func (nd *Node) stopAllTimers() {
	for id := range nd.armedTimers {
		nd.runtime.StopTimer(id)
		delete(nd.armedTimers, id)
	}
	nd.timerArmed = false
}

func (nd *Node) timeoutFor(view uint64) int64 {
	shift := view - uint64(nd.params.InitialLeader)
	if shift > 16 {
		shift = 16
	}
	return nd.params.TimeoutBase << shift
}

// HandleTimer reacts to an expired view timer: broadcast lead-ch for
// the next view (Fig. 2 "upon timeout").
func (nd *Node) HandleTimer(id uint64) {
	// The certificate-fallback sentinel is checked before every view
	// guard: it must fire even after decide (a decided node may still
	// be waiting on certificate-mode VSS completions).
	if id == CertFallbackTimer {
		nd.certFallback()
		return
	}
	if nd.done || nd.decided != nil {
		return
	}
	if id < nd.curView {
		return // stale timer from a superseded view
	}
	delete(nd.armedTimers, id)
	nd.params.Metrics.Timeouts.Inc()
	nd.trace(telemetry.EvTimeout, "view-timeout")
	target := id + 1
	nd.broadcastLeadCh(target)
	// Re-escalate with doubled timeout if the change stalls.
	nd.setViewTimer(target, nd.timeoutFor(target))
}

// broadcastLeadCh sends a signed lead-ch for the target view carrying
// this node's best material.
func (nd *Node) broadcastLeadCh(target uint64) {
	if nd.lcSent[target] || target <= nd.curView {
		return
	}
	material := nd.bestMaterial()
	if material == nil {
		return // nothing to support a proposal with; stay silent
	}
	sigBytes, err := nd.params.Directory.Scheme().Sign(nd.params.SignKey, LeadChTranscript(nd.tau, target))
	if err != nil {
		return
	}
	nd.lcSent[target] = true
	nd.lcJoined = true
	out := &LeadChMsg{Tau: nd.tau, NewView: target, Prop: material, Sig: sigBytes}
	for j := 1; j <= nd.params.N; j++ {
		nd.sendLogged(msg.NodeID(j), out)
	}
}

// handleSend processes a leader proposal (Fig. 2 "upon send").
func (nd *Node) handleSend(from msg.NodeID, m *SendMsg) {
	if m.Tau != nd.tau || nd.done {
		return
	}
	if m.View < nd.curView || nd.sendSeen[m.View] {
		return
	}
	if from != nd.Leader(m.View) {
		return
	}
	// For views ahead of ours, the leadership proof must justify the
	// fast-forward ("L also includes lead-ch signatures…").
	if m.View > nd.curView || m.View != uint64(nd.params.InitialLeader) {
		if !nd.verifyLeaderProof(m.View, m.LeaderProof) {
			return
		}
	}
	if err := m.Prop.WellFormed(nd.params.N, nd.params.QSize); err != nil {
		return
	}
	// R̂ from a send is never forwarded (echoes carry the slim
	// proposal), so R_d is skipped where it would prove nothing new.
	if !nd.verifyProposalProof(m.Prop, true) {
		return
	}
	if m.View > nd.curView {
		nd.installView(m.View, m.LeaderProof)
	}
	nd.sendSeen[m.View] = true
	// Echo guard: "if Q = ∅ or Q = Q̄".
	digest := m.Prop.Digest(nd.tau)
	if nd.lock != nil && !equalDigests(nd.lock.digest, digest) {
		return
	}
	sigBytes, err := nd.params.Directory.Scheme().Sign(nd.params.SignKey, EchoTranscript(nd.tau, digest))
	if err != nil {
		return
	}
	echo := &EchoMsg{Tau: nd.tau, Prop: m.Prop.Slim(), Sig: sigBytes}
	if nd.params.Certificates && !nd.certFloodActive {
		// Certificate mode: withhold the flood (kept for fallback) and
		// hand the signature to the relay committee instead.
		nd.certSuppressed = append(nd.certSuppressed, echo)
		nd.certSendPhase(vss.CertEcho, echo.Prop, digest, sigBytes)
		return
	}
	for j := 1; j <= nd.params.N; j++ {
		nd.sendLogged(msg.NodeID(j), echo)
	}
}

// handleEcho counts echoes per proposal digest by sender. Their
// signatures are checked only if the lock draws its M set from them.
func (nd *Node) handleEcho(from msg.NodeID, m *EchoMsg) {
	if m.Tau != nd.tau {
		return
	}
	if err := m.Prop.WellFormedBase(nd.params.N, nd.params.QSize); err != nil {
		return
	}
	qs := nd.qstate(m.Prop)
	if !qs.echo.add(from, m.Sig) {
		return
	}
	if qs.echo.count == nd.params.EchoThreshold() {
		nd.params.Metrics.DKGEchoQ.Inc()
		nd.trace(telemetry.EvQuorum, "dkg-echo-threshold")
	}
	if qs.echo.count >= nd.params.EchoThreshold() {
		nd.lockOn(qs, KindEcho)
	}
}

// handleReady counts readies per proposal digest by sender: t+1 of them
// lock (their signatures checked then), n−t−f decide, which ships
// nothing and so needs no signature.
func (nd *Node) handleReady(from msg.NodeID, m *ReadyMsg) {
	if m.Tau != nd.tau {
		return
	}
	if err := m.Prop.WellFormedBase(nd.params.N, nd.params.QSize); err != nil {
		return
	}
	qs := nd.qstate(m.Prop)
	if !qs.ready.add(from, m.Sig) {
		return
	}
	if qs.ready.count >= nd.params.T+1 {
		nd.lockOn(qs, KindReady)
	}
	if qs.ready.count == nd.params.ReadyThreshold() {
		nd.params.Metrics.DKGReadyQ.Inc()
		nd.trace(telemetry.EvQuorum, "dkg-ready-threshold")
		nd.decide(qs)
	}
}

// lockOn locks onto qs's proposal once its echoes (KindEcho) or readies
// (KindReady) hold a quorum of valid signatures. The lock's M set is
// the only DKG echo/ready signature set that leaves the node (lead-ch
// material, re-proposals), so this is where signatures are verified: the
// first EchoThreshold valid echoes or t+1 valid readies, in arrival
// order. Short of that the lock waits for the next arrival.
func (nd *Node) lockOn(qs *qstate, kind ProofKind) {
	if nd.lock != nil {
		return
	}
	var sigs []SignedQ
	if kind == KindEcho {
		sigs = qs.echo.quorum(nd.params.Directory, nd.self, EchoTranscript(nd.tau, qs.digest), nd.params.EchoThreshold())
	} else {
		sigs = qs.ready.quorum(nd.params.Directory, nd.self, ReadyTranscript(nd.tau, qs.digest), nd.params.T+1)
	}
	if sigs != nil {
		nd.lockAndReady(qs, kind, sigs)
	}
}

// lockAndReady locks onto a proposal (Q ← Q̄, M ← …) and broadcasts a
// signed ready for it. The lock guard ensures a node readies at most
// one proposal per session.
func (nd *Node) lockAndReady(qs *qstate, kind ProofKind, sigs []SignedQ) {
	if nd.lock != nil {
		if !equalDigests(nd.lock.digest, qs.digest) {
			return // never ready a conflicting proposal
		}
		return // already locked and readied this one
	}
	cp := make([]SignedQ, len(sigs))
	copy(cp, sigs)
	nd.lock = &lockState{prop: qs.prop, digest: qs.digest, kind: kind, sigs: cp}
	sigBytes, err := nd.params.Directory.Scheme().Sign(nd.params.SignKey, ReadyTranscript(nd.tau, qs.digest))
	if err != nil {
		return
	}
	ready := &ReadyMsg{Tau: nd.tau, Prop: qs.prop, Sig: sigBytes}
	if nd.params.Certificates && !nd.certFloodActive {
		nd.certSuppressed = append(nd.certSuppressed, ready)
		nd.certSendPhase(vss.CertReady, qs.prop, qs.digest, sigBytes)
		return
	}
	for j := 1; j <= nd.params.N; j++ {
		nd.sendLogged(msg.NodeID(j), ready)
	}
}

// decide fixes the final VSS set (rQ = n−t−f) and waits for the
// underlying sharings ("wait for shared output-messages…").
func (nd *Node) decide(qs *qstate) {
	if nd.decided != nil || nd.done {
		return
	}
	nd.decided = qs.prop
	nd.trace(telemetry.EvPhase, "decided")
	nd.stopAllTimers()
	nd.tryFinish()
}

// tryFinish completes once every sharing in the decided set has
// finished locally: s_i = Σ s_{i,d}, C = Π C_d.
func (nd *Node) tryFinish() {
	if nd.done || nd.decided == nil {
		return
	}
	for _, d := range nd.decided.Q {
		if _, ok := nd.vssDone[d]; !ok {
			return
		}
	}
	for i, d := range nd.decided.Q {
		if nd.vssDone[d].C.Hash() != nd.decided.CHashes[i] {
			// The VSS agreement property makes this unreachable for
			// honest quorums; refuse to finish on divergence.
			return
		}
	}
	combiner := nd.opts.Combine
	if combiner == nil {
		combiner = SumCombiner(nd.params.Group)
	}
	events := make(map[msg.NodeID]vss.SharedEvent, len(nd.decided.Q))
	for _, d := range nd.decided.Q {
		events[d] = nd.vssDone[d]
	}
	res, err := combiner(nd.self, nd.decided.Q, events)
	if err != nil || res.V == nil || res.Share == nil {
		return
	}
	nd.done = true
	if nd.certTimerArmed {
		nd.runtime.StopTimer(CertFallbackTimer)
	}
	nd.params.Metrics.DKGCompleted.Inc()
	nd.trace(telemetry.EvPhase, "dkg-completed")
	nd.result = &CompletedEvent{
		Tau:       nd.tau,
		FinalView: nd.curView,
		Q:         nd.decided.Q,
		C:         res.C,
		V:         res.V,
		Share:     res.Share,
		PublicKey: res.V.PublicKey(),
	}
	if nd.opts.OnCompleted != nil {
		nd.opts.OnCompleted(*nd.result)
	}
}

// SumCombiner is the standard Fig. 2 combination: s_i = Σ s_{i,d} and
// C = Π C_d.
func SumCombiner(gr *group.Group) Combiner {
	return func(_ msg.NodeID, q []msg.NodeID, events map[msg.NodeID]vss.SharedEvent) (CombineResult, error) {
		share := new(big.Int)
		mats := make([]*commit.Matrix, len(q))
		for i, d := range q {
			ev, ok := events[d]
			if !ok {
				return CombineResult{}, fmt.Errorf("dkg: missing sharing for dealer %d", d)
			}
			share.Add(share, ev.Share)
			mats[i] = ev.C
		}
		cProd, err := commit.Product(mats)
		if err != nil {
			return CombineResult{}, fmt.Errorf("dkg: combine decided set: %w", err)
		}
		share.Mod(share, gr.Q())
		return CombineResult{Share: share, C: cProd, V: cProd.Column0()}, nil
	}
}

// handleLeadCh implements Fig. 3.
func (nd *Node) handleLeadCh(from msg.NodeID, m *LeadChMsg) {
	if m.Tau != nd.tau || nd.done {
		return
	}
	if m.NewView <= nd.curView {
		return
	}
	if !nd.params.Directory.Verify(int64(from), LeadChTranscript(nd.tau, m.NewView), m.Sig) {
		return
	}
	if err := m.Prop.WellFormed(nd.params.N, nd.params.QSize); err != nil {
		return
	}
	// Full check: adopted material is re-shipped as evidence.
	if !nd.verifyProposalProof(m.Prop, false) {
		return
	}
	votes := nd.lcVotes[m.NewView]
	if votes == nil {
		votes = make(map[msg.NodeID][]byte)
		nd.lcVotes[m.NewView] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = m.Sig

	// Adopt carried material ("if R/M = R̂ then Q̂ ← Q … else Q ← Q").
	if m.Prop.Kind == KindVSS {
		if nd.adoptedVSS == nil {
			nd.adoptedVSS = m.Prop
		}
	} else if nd.adoptedM == nil {
		nd.adoptedM = m.Prop
	}

	// Join rule: t+1 distinct senders demanding views above ours.
	if !nd.lcJoined {
		senders := make(map[msg.NodeID]bool)
		minView := uint64(0)
		for view, vs := range nd.lcVotes {
			if view <= nd.curView {
				continue
			}
			for s := range vs {
				senders[s] = true
			}
			if minView == 0 || view < minView {
				minView = view
			}
		}
		if len(senders) >= nd.params.T+1 && minView > 0 {
			nd.broadcastLeadCh(minView)
		}
	}

	// Install rule: n−t−f distinct senders for one specific view.
	if len(votes) >= nd.params.ReadyThreshold() {
		proof := make([]SignedQ, 0, len(votes))
		for s, sg := range votes {
			proof = append(proof, SignedQ{Signer: s, Sig: sg})
		}
		sort.Slice(proof, func(i, j int) bool { return proof[i].Signer < proof[j].Signer })
		nd.installView(m.NewView, proof)
	}
}

// installView moves to a higher view (Fig. 3 install step).
func (nd *Node) installView(view uint64, proof []SignedQ) {
	if view <= nd.curView {
		return
	}
	nd.stopAllTimers()
	nd.curView = view
	nd.leaderProof = proof
	nd.lcJoined = false
	nd.lcCount++
	nd.params.Metrics.LeaderChanges.Inc()
	nd.params.Trace.Emit(nd.tau, int64(nd.Leader(view)), int(view), telemetry.EvLeader, "view-installed")
	for v := range nd.lcVotes {
		if v <= view {
			delete(nd.lcVotes, v)
		}
	}
	if nd.done || nd.decided != nil {
		return
	}
	if nd.Leader(view) == nd.self {
		nd.proposeAsLeader()
		return
	}
	if len(nd.vssDone) >= nd.params.QSize {
		nd.armTimer()
	}
}

// verifyLeaderProof checks n−t−f distinct signed lead-ch messages for
// the view.
func (nd *Node) verifyLeaderProof(view uint64, proof []SignedQ) bool {
	return nd.hasValidQSigs(LeadChTranscript(nd.tau, view), proof, nd.params.ReadyThreshold())
}

// verifyProposalProof implements verify-signature(Q, R̂/M): R̂ sets
// prove per-dealer VSS completion; M sets prove an echo or ready
// quorum for the digest. With skipDone, R_d is not checked for a dealer
// whose sharing this node completed with the proposed digest: the
// proposal digest covers only (Q, CHashes), and local completion already
// tells the node what R_d would.
func (nd *Node) verifyProposalProof(p *Proposal, skipDone bool) bool {
	switch p.Kind {
	case KindVSS:
		for i, d := range p.Q {
			if ev, ok := nd.vssDone[d]; skipDone && ok && ev.C.Hash() == p.CHashes[i] {
				continue
			}
			if !nd.verifyVSSProof(d, p.CHashes[i], p.VSSProofs[i]) {
				return false
			}
		}
		return true
	case KindEcho:
		digest := p.Digest(nd.tau)
		transcriptBytes := EchoTranscript(nd.tau, digest)
		if nd.hasValidQSigs(transcriptBytes, p.QSigs, nd.params.EchoThreshold()) {
			return true
		}
		return nd.certQuorumValid(digest, transcriptBytes, p.QSigs, vss.CertEcho)
	case KindReady:
		digest := p.Digest(nd.tau)
		transcriptBytes := ReadyTranscript(nd.tau, digest)
		if nd.hasValidQSigs(transcriptBytes, p.QSigs, nd.params.T+1) {
			return true
		}
		return nd.certQuorumValid(digest, transcriptBytes, p.QSigs, vss.CertReady)
	default:
		return false
	}
}

// certQuorumValid accepts an M-set proof drawn from a certificate: the
// signatures need not reach the classic flood thresholds as long as
// enough of them come from the digest's signer committee. KindEcho
// needs the committee echo quorum; KindReady mirrors the classic t+1
// rule (one honest committee ready) with t_s+1 committee signatures.
func (nd *Node) certQuorumValid(digest [32]byte, transcriptBytes []byte, sigs []SignedQ, phase uint8) bool {
	if !nd.params.Certificates {
		return false
	}
	comm := nd.certCommittee(digest)
	need := comm.EchoQuorum()
	if phase == vss.CertReady {
		need = comm.TS + 1
	}
	seen := make(map[msg.NodeID]bool, len(sigs))
	valid := 0
	for _, s := range sigs {
		if valid >= need {
			break
		}
		if seen[s.Signer] || !comm.IsSigner(int64(s.Signer)) {
			continue
		}
		seen[s.Signer] = true
		if nd.params.Directory.Verify(int64(s.Signer), transcriptBytes, s.Sig) {
			valid++
		}
	}
	return valid >= need
}

func (nd *Node) verifyVSSProof(dealer msg.NodeID, cHash [32]byte, proof []vss.SignedReady) bool {
	session := vss.SessionID{Dealer: dealer, Tau: nd.tau}
	transcriptBytes := vss.ReadyTranscript(session, cHash)
	// In certificate mode a completion proof may be a converted ready
	// certificate: committee-quorum many signatures rather than the
	// n−t−f flood quorum.
	var comm *sig.Committee
	if nd.params.Certificates {
		c := vss.CertCommittee(nd.params.N, nd.params.T, session, cHash)
		comm = &c
	}
	// The first quorum reached decides; later signatures are not checked.
	seen := make(map[msg.NodeID]bool, len(proof))
	valid, inComm := 0, 0
	for _, sr := range proof {
		if seen[sr.Signer] || sr.Signer < 1 || int(sr.Signer) > nd.params.N {
			continue
		}
		seen[sr.Signer] = true
		if !nd.params.Directory.Verify(int64(sr.Signer), transcriptBytes, sr.Sig) {
			continue
		}
		valid++
		if comm != nil && comm.IsSigner(int64(sr.Signer)) {
			inComm++
		}
		if valid >= nd.params.ReadyThreshold() || (comm != nil && inComm >= comm.ReadyQuorum()) {
			return true
		}
	}
	return false
}

// hasValidQSigs reports whether sigs holds need valid signatures on the
// transcript from distinct roster members, checking no more than it
// takes to know.
func (nd *Node) hasValidQSigs(transcriptBytes []byte, sigs []SignedQ, need int) bool {
	seen := make(map[msg.NodeID]bool, len(sigs))
	valid := 0
	for _, s := range sigs {
		if valid >= need {
			break
		}
		if seen[s.Signer] || s.Signer < 1 || int(s.Signer) > nd.params.N {
			continue
		}
		seen[s.Signer] = true
		if nd.params.Directory.Verify(int64(s.Signer), transcriptBytes, s.Sig) {
			valid++
		}
	}
	return valid >= need
}

// qstate fetches or creates quorum state for a proposal.
func (nd *Node) qstate(prop *Proposal) *qstate {
	digest := prop.Digest(nd.tau)
	qs, ok := nd.qstates[digest]
	if !ok {
		qs = &qstate{
			prop:   prop.Slim(),
			digest: digest,
			echo:   tally{seen: make(map[msg.NodeID]bool, nd.params.N)},
			ready:  tally{seen: make(map[msg.NodeID]bool, nd.params.N)},
		}
		nd.qstates[digest] = qs
	}
	return qs
}

// --- recovery (DKG-session-level help) -------------------------------

// HandleRecover is the (L, τ, in, recover) operator message: one help
// request to every node plus full retransmission of our own logs
// (DKG and embedded VSS). Retransmissions walk destinations and dealers
// in ascending NodeID order: the recovery schedule must be a pure
// function of protocol state so that seeded simulation runs replay
// event-for-event (map iteration order is not).
func (nd *Node) HandleRecover() {
	for j := 1; j <= nd.params.N; j++ {
		nd.runtime.Send(msg.NodeID(j), &HelpMsg{Tau: nd.tau})
	}
	for j := 1; j <= nd.params.N; j++ {
		for _, b := range nd.outLog[msg.NodeID(j)] {
			nd.runtime.Send(msg.NodeID(j), b)
		}
	}
	for j := 1; j <= nd.params.N; j++ {
		if vnode, ok := nd.vssNodes[msg.NodeID(j)]; ok {
			vnode.ResendLog()
		}
	}
}

// handleHelp serves a session-level help request within the d(κ)
// budgets, replaying the DKG log and every VSS log destined for the
// requester.
func (nd *Node) handleHelp(from msg.NodeID, m *HelpMsg) {
	if m.Tau != nd.tau {
		return
	}
	if nd.helpFrom[from] > nd.params.DMax || nd.helpTotal > (nd.params.T+1)*nd.params.DMax {
		return
	}
	nd.helpFrom[from]++
	nd.helpTotal++
	nd.params.Metrics.HelpRequests.Inc()
	nd.trace(telemetry.EvHelp, "dkg-help-served")
	for _, b := range nd.outLog[from] {
		nd.runtime.Send(from, b)
	}
	// Dealer order fixed for deterministic replay (see HandleRecover).
	for j := 1; j <= nd.params.N; j++ {
		if vnode, ok := nd.vssNodes[msg.NodeID(j)]; ok {
			vnode.ResendLoggedTo(from)
		}
	}
}

// trace emits one timeline event when tracing is enabled. Detail
// strings are constants, so the disabled path allocates nothing.
func (nd *Node) trace(kind telemetry.EventKind, detail string) {
	nd.params.Trace.Emit(nd.tau, int64(nd.self), int(nd.curView), kind, detail)
}

// sendLogged sends and records in the DKG-level B set.
func (nd *Node) sendLogged(to msg.NodeID, body msg.Body) {
	nd.outLog[to] = append(nd.outLog[to], body)
	nd.runtime.Send(to, body)
}
