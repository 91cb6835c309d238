// Package vss implements HybridVSS, the verifiable secret sharing
// protocol of Kate & Goldberg (ICDCS 2009), Figure 1: an asynchronous
// VSS for the hybrid fault model (t Byzantine nodes plus f
// crash-recovery nodes, n ≥ 3t + 2f + 1) built from the AVSS protocol
// of Cachin et al. with the recovery machinery of Backes–Cachin
// reliable broadcast, using symmetric bivariate polynomials and
// Feldman commitments.
//
// A Node is a deterministic state machine for one session (P_d, τ).
// It emits messages through a Sender and reports completion through
// callbacks; timers are not needed (HybridVSS is timer-free — only
// the DKG layer above uses timers).
package vss

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/telemetry"
)

// Errors returned by the VSS layer.
var (
	ErrBadParams    = errors.New("vss: invalid parameters")
	ErrNotDealer    = errors.New("vss: share input on a non-dealer node")
	ErrAlreadyDealt = errors.New("vss: dealer already shared")
	ErrNotDone      = errors.New("vss: sharing not complete")
)

// Params carries the static configuration of a HybridVSS session.
type Params struct {
	// Group is the discrete-log group for commitments.
	Group *group.Group
	// N, T, F are the node count, Byzantine threshold and crash
	// limit; resilience requires N ≥ 3T + 2F + 1.
	N, T, F int
	// DMax is d(κ), the bound on the adversary's crash budget; it
	// caps help-request service (Fig. 1 recovery counters).
	DMax int
	// HashedEcho enables the O(κn³) hashed-commitment optimisation:
	// echo/ready carry a digest of C instead of the matrix.
	HashedEcho bool
	// DedupDealings sends the dealer's commitment matrix in full only
	// once per session (the send message); echo/ready reference it by
	// digest, like HashedEcho, and a node that buffers points for a
	// digest it cannot resolve pulls the matrix from the referencing
	// sender with a fetch message. Completion is unaffected: the matrix
	// is self-authenticating (its digest is recomputed on receipt), so
	// the fetch path accepts exactly the matrices the send path would.
	DedupDealings bool
	// CompressedWire selects the wire-format-v2 commitment encoding
	// (compressed group elements) for every outgoing matrix. Decoding
	// is auto-detecting, so mixed-version peers interoperate and the
	// commitment digest CHash — defined over the canonical v1 bytes —
	// is identical either way.
	CompressedWire bool
	// DisableBatch turns off batched point verification. By default a
	// node that holds no trusted row polynomial defers incoming
	// echo/ready points and verifies them in one randomized-linear-
	// combination multi-exp right before a threshold could be crossed
	// (commit.BatchVerifier); per-point verification returns as the
	// fallback when a batch fails, so verdicts are identical either
	// way — this switch exists for benchmarks and differential tests.
	DisableBatch bool
	// Parallel, when set, is a best-effort worker pool that batch
	// flushes use to build their independent per-group equations
	// concurrently (commit.BatchVerifier.SetParallel).
	Parallel commit.Parallel
	// Extended enables signed ready messages whose collected sets
	// form DKG completion proofs (extended HybridVSS, §4).
	Extended bool
	// Certificates replaces the all-to-all echo/ready floods with
	// relay-assembled quorum certificates: a deterministically sampled
	// signer committee (seeded from the session identity and the
	// commitment hash) sends signed attestations to a sampled relay
	// committee; a relay that collects a committee quorum multicasts
	// one certificate, verified by receivers in a single batched
	// multi-exponentiation (sig.VerifyCertificate). Per-dealing
	// communication drops from O(n²) messages to O(n·|committee|).
	// Liveness never regresses below the flood protocol: if no
	// certificate arrives, TriggerCertFallback (driven by the DKG
	// layer's timer) floods the suppressed echoes/readies through the
	// unchanged Fig. 1 path. Requires Extended.
	Certificates bool
	// Directory holds all nodes' signature keys (required iff
	// Extended).
	Directory *sig.Directory
	// SignKey is this node's private signing key (required iff
	// Extended).
	SignKey []byte
	// Metrics, when set, receives the per-phase protocol counts
	// (dealings accepted, quorum crossings, completions). The bundle
	// is shared with the DKG layer above. Nil instruments are no-ops.
	Metrics *telemetry.ProtocolMetrics
	// Trace, when set, records quorum-crossing and phase events into
	// the per-session timeline under TraceSID (the engine-level
	// session identifier; the VSS-level (dealer, τ) pair goes into
	// the event detail).
	Trace    *telemetry.Tracer
	TraceSID uint64
}

// EchoThreshold returns ⌈(n+t+1)/2⌉.
func (p Params) EchoThreshold() int { return (p.N + p.T + 2) / 2 }

// ReadyThreshold returns n − t − f, the completion quorum.
func (p Params) ReadyThreshold() int { return p.N - p.T - p.F }

// HelpPerNode returns the per-requester help budget d(κ).
func (p Params) HelpPerNode() int { return p.DMax }

// HelpTotal returns the global help budget (t+1)·d(κ).
func (p Params) HelpTotal() int { return (p.T + 1) * p.DMax }

// Validate checks the resilience bound and required fields.
func (p Params) Validate() error {
	if p.Group == nil {
		return fmt.Errorf("%w: nil group", ErrBadParams)
	}
	if p.N <= 0 || p.T < 0 || p.F < 0 {
		return fmt.Errorf("%w: n=%d t=%d f=%d", ErrBadParams, p.N, p.T, p.F)
	}
	if p.N < 3*p.T+2*p.F+1 {
		return fmt.Errorf("%w: resilience bound violated (n=%d < 3t+2f+1=%d)",
			ErrBadParams, p.N, 3*p.T+2*p.F+1)
	}
	if p.DMax < 0 {
		return fmt.Errorf("%w: negative DMax", ErrBadParams)
	}
	if p.Extended && (p.Directory == nil || len(p.SignKey) == 0) {
		return fmt.Errorf("%w: extended mode requires directory and signing key", ErrBadParams)
	}
	if p.Certificates && !p.Extended {
		return fmt.Errorf("%w: certificate mode requires extended mode", ErrBadParams)
	}
	return nil
}

// Sender is the outgoing half of the node's network interface
// (satisfied by *simnet.Env and by the TCP runtime).
type Sender interface {
	Send(to msg.NodeID, body msg.Body)
}

// SharedEvent reports Sh completion: (P_d, τ, out, shared, C, s_i).
// The R_d proof set of extended mode is assembled when it is used
// (Node.ReadyProof).
type SharedEvent struct {
	Session SessionID
	C       *commit.Matrix
	Share   *big.Int
}

// ReconstructedEvent reports Rec completion:
// (P_d, τ, out, reconstructed, z_i).
type ReconstructedEvent struct {
	Session SessionID
	Value   *big.Int
}

// cstate is the per-commitment state: the point set A_C and the echo
// and ready counters e_C, r_C of Fig. 1.
type cstate struct {
	h          [32]byte
	c          *commit.Matrix // nil until the matrix is known (hashed mode)
	points     map[msg.NodeID]*big.Int
	echoCount  int
	readyCount int
	// readySigs holds the signature of every counted ready (extended
	// mode), in arrival order and unverified: verify-point alone gates
	// r_C, as in Fig. 1. proof is the valid ones among the first
	// proofChecked of them (see ReadyProof).
	readySigs    []SignedReady
	proof        []SignedReady
	proofChecked int
	sentReady    bool
	aBar         *poly.Poly // interpolated row polynomial, once available
	// aRow holds the row polynomial f(i,·) from the dealer's send,
	// pinned to this commitment by verify-poly. Once either aRow or aBar
	// is known, incoming points verify by scalar evaluation (see
	// pointValid) instead of exponentiations.
	aRow *poly.Poly
	// echoFlooded marks that the classic all-to-all echo broadcast for
	// this commitment has run (immediately in flood mode, lazily on
	// certificate fallback), so the fallback never double-sends.
	echoFlooded bool
	// unverified holds points that passed the cheap checks (scalar
	// range, first message per sender) but whose expensive
	// verify-point run is deferred: with batching enabled and no
	// trusted row polynomial, they are verified together in one
	// randomized-linear-combination multi-exp right before a threshold
	// could be crossed (maybeFlushBatch).
	unverified []pendingPoint
}

// rowPoly returns a trusted representation of f(i,·) for this
// commitment, if one is known.
func (cs *cstate) rowPoly() *poly.Poly {
	if cs.aRow != nil {
		return cs.aRow
	}
	return cs.aBar
}

// pendingPoint buffers an echo/ready that arrived (in hashed mode)
// before the commitment matrix was known, and doubles as the deferred
// batch-verification queue entry.
type pendingPoint struct {
	from  msg.NodeID
	alpha *big.Int
	ready bool
	sig   []byte
	// buffered marks a point that came through the hashed-mode
	// pre-matrix buffer, whose sender slot was deliberately burned at
	// buffering time ("equivocation cannot inflate counters"); the
	// already-set slot must not stop applyVerified from counting the
	// point. Live deferred points consume no slot until accepted,
	// matching the unbatched live path (an invalid point never
	// consumes the sender's first-message slot).
	buffered bool
}

// Node is one HybridVSS session endpoint.
type Node struct {
	params  Params
	self    msg.NodeID
	session SessionID
	sender  Sender

	onShared        func(SharedEvent)
	onReconstructed func(ReconstructedEvent)

	// Dealing state (dealer only).
	dealt bool

	// Sh state.
	sendHandled bool
	echoSeen    map[msg.NodeID]bool
	readySeen   map[msg.NodeID]bool
	cstates     map[[32]byte]*cstate
	pending     map[[32]byte][]pendingPoint

	done  bool
	share *big.Int
	outC  *commit.Matrix
	// certProof is the R_d set taken from a verified ready certificate
	// (certificate mode); flood completions derive theirs on use.
	certProof []SignedReady

	// Recovery state: B (outgoing log) and the help counters c, c_ℓ.
	outLog    map[msg.NodeID][]msg.Body
	helpFrom  map[msg.NodeID]int
	helpTotal int

	// Dedup fetch state: which (digest, sender) pairs we already asked
	// for the matrix, and which (digest, requester) pairs we already
	// served. Asks fire only at the pending-buffer points, so they are
	// bounded by the sender's burned first-message slots; serves are
	// bounded to one per requester per known digest.
	fetchAsked  map[[32]byte]map[msg.NodeID]bool
	fetchServed map[[32]byte]map[msg.NodeID]bool

	// Certificate-mode state (Params.Certificates): per-commitment
	// committee/attestation tracking plus the fallback latch.
	certs           map[[32]byte]*certState
	certFloodActive bool

	// Rec state.
	recStarted    bool
	recSeen       map[msg.NodeID]bool
	recPoints     []poly.Point
	recPending    []RecShareMsg
	recPendingSrc []msg.NodeID
	reconstructed *big.Int
}

// Options bundles the per-node callbacks.
type Options struct {
	// OnShared fires exactly once when protocol Sh completes.
	OnShared func(SharedEvent)
	// OnReconstructed fires exactly once when protocol Rec completes.
	OnReconstructed func(ReconstructedEvent)
}

// NewNode creates the session endpoint for node self in session.
func NewNode(params Params, session SessionID, self msg.NodeID, sender Sender, opts Options) (*Node, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if self < 1 || int64(self) > int64(params.N) {
		return nil, fmt.Errorf("%w: self index %d out of [1,%d]", ErrBadParams, self, params.N)
	}
	if session.Dealer < 1 || int64(session.Dealer) > int64(params.N) {
		return nil, fmt.Errorf("%w: dealer index %d out of [1,%d]", ErrBadParams, session.Dealer, params.N)
	}
	if sender == nil {
		return nil, fmt.Errorf("%w: nil sender", ErrBadParams)
	}
	if params.Metrics == nil {
		params.Metrics = &telemetry.ProtocolMetrics{}
	}
	return &Node{
		params:          params,
		self:            self,
		session:         session,
		sender:          sender,
		onShared:        opts.OnShared,
		onReconstructed: opts.OnReconstructed,
		echoSeen:        make(map[msg.NodeID]bool, params.N),
		readySeen:       make(map[msg.NodeID]bool, params.N),
		cstates:         make(map[[32]byte]*cstate),
		pending:         make(map[[32]byte][]pendingPoint),
		outLog:          make(map[msg.NodeID][]msg.Body, params.N),
		helpFrom:        make(map[msg.NodeID]int, params.N),
		fetchAsked:      make(map[[32]byte]map[msg.NodeID]bool),
		fetchServed:     make(map[[32]byte]map[msg.NodeID]bool),
		certs:           make(map[[32]byte]*certState),
		recSeen:         make(map[msg.NodeID]bool, params.N),
	}, nil
}

// Session returns the session identifier.
func (nd *Node) Session() SessionID { return nd.session }

// Done reports whether protocol Sh has completed locally.
func (nd *Node) Done() bool { return nd.done }

// Share returns this node's share s_i (nil until Done).
func (nd *Node) Share() *big.Int {
	if nd.share == nil {
		return nil
	}
	return new(big.Int).Set(nd.share)
}

// Commitment returns the decided commitment matrix (nil until Done).
func (nd *Node) Commitment() *commit.Matrix { return nd.outC }

// ReadyProof returns the R_d set (extended mode, after Done): the first
// n−t−f valid signatures among the counted readies, in arrival order.
// A ready's signature matters only as transferable proof, so it is
// checked here, when the set is about to leave the node, and not when
// the ready is counted. The result is nil while fewer than n−t−f of
// them verify; a later ready may still complete the set.
func (nd *Node) ReadyProof() []SignedReady {
	if len(nd.certProof) > 0 || !nd.done || !nd.params.Extended {
		return nd.certProof
	}
	rt := nd.params.ReadyThreshold()
	h := nd.outC.Hash()
	cs := nd.cstates[h]
	transcript := ReadyTranscript(nd.session, h)
	for ; cs.proofChecked < len(cs.readySigs) && len(cs.proof) < rt; cs.proofChecked++ {
		sr := cs.readySigs[cs.proofChecked]
		if nd.params.Directory.Verify(int64(sr.Signer), transcript, sr.Sig) {
			cs.proof = append(cs.proof, sr)
		}
	}
	if len(cs.proof) < rt {
		return nil
	}
	return cs.proof
}

// Reconstructed returns z_i (nil until Rec completes).
func (nd *Node) Reconstructed() *big.Int {
	if nd.reconstructed == nil {
		return nil
	}
	return new(big.Int).Set(nd.reconstructed)
}

// ShareSecret is the dealer's (P_d, τ, in, share, s) operator message:
// it samples a symmetric bivariate polynomial with f(0,0) = s, commits,
// and sends each node its row.
func (nd *Node) ShareSecret(s *big.Int, rand io.Reader) error {
	if nd.self != nd.session.Dealer {
		return ErrNotDealer
	}
	if nd.dealt {
		return ErrAlreadyDealt
	}
	f, err := poly.NewRandomSymmetric(nd.params.Group.Q(), s, nd.params.T, rand)
	if err != nil {
		return fmt.Errorf("vss: sample bivariate polynomial: %w", err)
	}
	c := commit.NewMatrix(nd.params.Group, f)
	nd.dealt = true
	for j := 1; j <= nd.params.N; j++ {
		nd.sendLogged(msg.NodeID(j), &SendMsg{
			Session:    nd.session,
			C:          c,
			A:          f.Row(int64(j)).Coeffs(),
			Compressed: nd.params.CompressedWire,
		})
	}
	return nil
}

// hashOnly reports whether echo/ready messages carry only the
// commitment digest: in hashed mode (the O(κn³) optimisation) and in
// dedup mode (the full matrix travels once, in the dealer's send).
func (nd *Node) hashOnly() bool { return nd.params.HashedEcho || nd.params.DedupDealings }

// Handle processes one network message. Unknown or malformed bodies
// for other sessions are ignored (Byzantine nodes may send anything).
func (nd *Node) Handle(from msg.NodeID, body msg.Body) {
	switch m := body.(type) {
	case *SendMsg:
		nd.handleSend(from, m)
	case *EchoMsg:
		nd.handleEcho(from, m)
	case *ReadyMsg:
		nd.handleReady(from, m)
	case *HelpMsg:
		nd.handleHelp(from, m)
	case *CertSignMsg:
		nd.handleCertSign(from, m)
	case *CertMsg:
		nd.handleCert(from, m)
	case *FetchMsg:
		nd.handleFetch(from, m)
	case *MatrixMsg:
		nd.handleMatrix(from, m)
	case *RecShareMsg:
		nd.handleRecShare(from, m)
	}
}

// handleSend: upon (P_d, τ, send, C, a) from P_d (first time).
func (nd *Node) handleSend(from msg.NodeID, m *SendMsg) {
	if m.Session != nd.session || from != nd.session.Dealer || nd.sendHandled {
		return
	}
	if !nd.wellFormed(m.C) {
		return
	}
	if m.OmitPoly {
		// Redacted retransmission (renewal recovery): learn C so
		// buffered hashed echoes can be processed, but send no echo.
		nd.sendHandled = true
		nd.learnCommitment(m.C)
		return
	}
	if len(m.A) != nd.params.T+1 {
		return
	}
	a, err := poly.FromCoeffs(nd.params.Group.Q(), m.A)
	if err != nil {
		return
	}
	// verify-poly
	if !m.C.VerifyPoly(int64(nd.self), a) {
		return
	}
	nd.sendHandled = true
	nd.params.Metrics.Dealings.Inc()
	nd.trace(telemetry.EvPhase, "vss-dealing-accepted")
	cs := nd.learnCommitmentRow(m.C, a)
	if nd.params.Certificates && !nd.certFloodActive {
		nd.certSendEcho(cs.h)
	} else {
		nd.floodEchoes(cs)
	}
}

// wellFormed reports whether c can be this session's dealing: a
// degree-t matrix.
func (nd *Node) wellFormed(c *commit.Matrix) bool {
	return c != nil && c.T() == nd.params.T
}

// floodEchoes runs the classic Fig. 1 echo broadcast from the dealer's
// verified row, once per commitment. In flood mode it fires straight
// from handleSend; in certificate mode only TriggerCertFallback calls
// it.
func (nd *Node) floodEchoes(cs *cstate) {
	if cs == nil || cs.echoFlooded || cs.aRow == nil {
		return
	}
	cs.echoFlooded = true
	for j := 1; j <= nd.params.N; j++ {
		nd.params.Metrics.EchoSent.Inc()
		nd.sendLogged(msg.NodeID(j), nd.makeEcho(cs, cs.aRow.EvalInt(int64(j))))
	}
}

// handleEcho: upon (P_d, τ, echo, C, α) from P_m (first time).
func (nd *Node) handleEcho(from msg.NodeID, m *EchoMsg) {
	if m.Session != nd.session || nd.echoSeen[from] {
		return
	}
	if m.C != nil && !nd.wellFormed(m.C) {
		return
	}
	cs, known := nd.resolveCommitment(m.C, m.CHash)
	if !known {
		// Hashed/dedup mode, matrix not yet known: buffer, but still
		// burn the sender's first-echo slot so equivocation cannot
		// inflate counters later.
		nd.echoSeen[from] = true
		nd.pending[m.CHash] = append(nd.pending[m.CHash], pendingPoint{from: from, alpha: m.Alpha})
		nd.maybeFetch(m.CHash, from)
		return
	}
	if nd.deferPoint(cs, pendingPoint{from: from, alpha: m.Alpha}) {
		nd.maybeFlushBatch(cs)
		return
	}
	if !nd.pointValid(cs, from, m.Alpha) {
		return
	}
	nd.echoSeen[from] = true
	nd.addEcho(cs, from, m.Alpha)
	// A direct apply can move the counters to the brink; the queued
	// points (if any) must get their crossing chance too.
	nd.maybeFlushBatch(cs)
}

// scalarInRange reports whether alpha is a scalar of Z_q.
func (nd *Node) scalarInRange(alpha *big.Int) bool {
	return alpha != nil && alpha.Sign() >= 0 && alpha.Cmp(nd.params.Group.Q()) < 0
}

// pointValid checks α = f(from, self) against the commitment. The
// expensive verify-point exponentiations only run while the node has
// no trusted row polynomial:
//
//   - an echo and its ready carry the same evaluation, so a point
//     already in the verified set A_C passes by comparison;
//   - once the dealer's send was accepted, verify-poly has pinned the
//     row a = f(i,·) to this commitment, and by the symmetry of f the
//     predicate verify-point(C, i, m, α) ⇔ α = f(m, i) = a(m) — a
//     scalar polynomial evaluation mod q;
//   - likewise after ā was interpolated from t+1 verified points
//     (Fig. 1), since a degree-t polynomial through t+1 evaluations of
//     f(i,·) is f(i,·).
func (nd *Node) pointValid(cs *cstate, from msg.NodeID, alpha *big.Int) bool {
	if !nd.scalarInRange(alpha) {
		return false
	}
	if prev, ok := cs.points[from]; ok && prev.Cmp(alpha) == 0 {
		return true
	}
	if row := cs.rowPoly(); row != nil {
		return row.EvalInt(int64(from)).Cmp(alpha) == 0
	}
	return cs.c.VerifyPoint(int64(nd.self), int64(from), alpha)
}

// deferPoint reports whether pp should join the deferred-verification
// queue instead of paying an immediate verify-point, and queues it if
// so. Deferral applies only while the expensive path would run: with
// batching enabled, a known matrix, no trusted row polynomial, and no
// previously verified point from this sender (echo/ready pairs
// resolve by comparison, exactly like pointValid's fast path).
// Out-of-range scalars return false so the caller's pointValid
// rejects them for free.
//
// Queueing does NOT consume the sender's message slot — acceptance
// does (applyVerified), exactly as in the unbatched path, so an
// invalid deferred point never blocks the sender's corrected
// retransmission and a sender may have several entries in flight
// (deduplicated at apply time). The queue therefore grows with
// unverified traffic, but every flush empties it and the crossing
// predicate fires after at most an EchoThreshold-sized burst, so a
// flooding sender buys the same per-message verification work the
// unbatched path would spend.
func (nd *Node) deferPoint(cs *cstate, pp pendingPoint) bool {
	if nd.params.DisableBatch || cs.c == nil || cs.rowPoly() != nil {
		return false
	}
	if !nd.scalarInRange(pp.alpha) {
		return false // invalid scalar: let pointValid reject it for free
	}
	if prev, ok := cs.points[pp.from]; ok && prev.Cmp(pp.alpha) == 0 {
		return false // cheap comparison path; no need to defer
	}
	cs.unverified = append(cs.unverified, pp)
	return true
}

// maybeFlushBatch verifies the deferred points in one batch multi-exp
// once they could cross an echo or ready threshold. Verified points
// are applied in arrival order (preserving the exact == threshold
// triggers) through the apply-time dedup of applyVerified; failed
// points are simply dropped — their sender slots were never consumed,
// matching the unbatched verdict for an invalid point.
func (nd *Node) maybeFlushBatch(cs *cstate) {
	if len(cs.unverified) == 0 {
		return
	}
	pe, pr := 0, 0
	for _, pp := range cs.unverified {
		if pp.ready {
			pr++
		} else {
			pe++
		}
	}
	et, t1, rt := nd.params.EchoThreshold(), nd.params.T+1, nd.params.ReadyThreshold()
	crossEcho := cs.echoCount < et && cs.echoCount+pe >= et
	crossReady := (cs.readyCount < t1 && cs.readyCount+pr >= t1) || cs.readyCount+pr >= rt
	if !crossEcho && !crossReady {
		return
	}
	pend := cs.unverified
	cs.unverified = nil
	bv := commit.NewBatchVerifier(nd.params.Group)
	bv.SetParallel(nd.params.Parallel)
	for idx, pp := range pend {
		bv.AddPoint(idx, cs.c, int64(nd.self), int64(pp.from), pp.alpha)
	}
	bad := make(map[int]bool, len(pend))
	for _, tag := range bv.Flush() {
		bad[tag.(int)] = true
	}
	applied := make(map[msg.NodeID]uint8, len(pend))
	for idx, pp := range pend {
		if !bad[idx] {
			nd.applyVerified(cs, pp, applied)
		}
	}
}

// applyVerified counts one verified deferred point, consuming the
// sender's echo- or ready-slot exactly once: at most one apply per
// (sender, kind) per drain (the applied set), and none for a sender
// whose slot an earlier acceptance already consumed — except
// hashed-buffer points, whose slot was burned at buffering time
// before any acceptance (see pendingPoint.buffered).
func (nd *Node) applyVerified(cs *cstate, pp pendingPoint, applied map[msg.NodeID]uint8) {
	bit := uint8(1)
	seen := nd.echoSeen
	if pp.ready {
		bit = 2
		seen = nd.readySeen
	}
	if applied[pp.from]&bit != 0 {
		return
	}
	if seen[pp.from] && !pp.buffered {
		return
	}
	applied[pp.from] |= bit
	seen[pp.from] = true
	nd.applyPoint(cs, pp)
}

// drainUnverified retires the deferred queue through the cheap
// row-polynomial check; it is called whenever a trusted row appears
// (dealer send accepted, or ā interpolated), since from then on no
// new points defer and the queued ones would otherwise never be
// counted.
func (nd *Node) drainUnverified(cs *cstate) {
	if len(cs.unverified) == 0 || cs.rowPoly() == nil {
		return
	}
	pend := cs.unverified
	cs.unverified = nil
	applied := make(map[msg.NodeID]uint8, len(pend))
	for _, pp := range pend {
		if !nd.pointValid(cs, pp.from, pp.alpha) {
			continue
		}
		nd.applyVerified(cs, pp, applied)
	}
}

// addEcho applies a verified echo point to commitment state.
func (nd *Node) addEcho(cs *cstate, from msg.NodeID, alpha *big.Int) {
	cs.points[from] = alpha
	cs.echoCount++
	if cs.echoCount == nd.params.EchoThreshold() {
		nd.params.Metrics.EchoQuorums.Inc()
		nd.trace(telemetry.EvQuorum, "vss-echo-threshold")
	}
	if cs.echoCount == nd.params.EchoThreshold() && cs.readyCount < nd.params.T+1 {
		if nd.interpolateRow(cs) {
			nd.broadcastReady(cs)
		}
	}
}

// handleReady: upon (P_d, τ, ready, C, α) from P_m (first time).
func (nd *Node) handleReady(from msg.NodeID, m *ReadyMsg) {
	if m.Session != nd.session || nd.readySeen[from] {
		return
	}
	if m.C != nil && !nd.wellFormed(m.C) {
		return
	}
	cs, known := nd.resolveCommitment(m.C, m.CHash)
	if !known {
		nd.readySeen[from] = true
		nd.pending[m.CHash] = append(nd.pending[m.CHash], pendingPoint{from: from, alpha: m.Alpha, ready: true, sig: m.Sig})
		nd.maybeFetch(m.CHash, from)
		return
	}
	if nd.deferPoint(cs, pendingPoint{from: from, alpha: m.Alpha, ready: true, sig: m.Sig}) {
		nd.maybeFlushBatch(cs)
		return
	}
	if !nd.pointValid(cs, from, m.Alpha) {
		return
	}
	nd.readySeen[from] = true
	nd.addReady(cs, from, m.Alpha, m.Sig)
	// A direct apply can move the counters to the brink; the queued
	// points (if any) must get their crossing chance too.
	nd.maybeFlushBatch(cs)
}

// addReady applies a verified ready point to commitment state.
func (nd *Node) addReady(cs *cstate, from msg.NodeID, alpha *big.Int, sigBytes []byte) {
	cs.points[from] = alpha
	cs.readyCount++
	if nd.params.Extended {
		cs.readySigs = append(cs.readySigs, SignedReady{Signer: from, Sig: sigBytes})
	}
	switch {
	case cs.readyCount == nd.params.T+1 && cs.echoCount < nd.params.EchoThreshold():
		if nd.interpolateRow(cs) {
			nd.broadcastReady(cs)
		}
	case cs.readyCount == nd.params.ReadyThreshold():
		nd.params.Metrics.ReadyQuorums.Inc()
		nd.trace(telemetry.EvQuorum, "vss-ready-threshold")
		nd.complete(cs)
	}
}

// interpolateRow Lagrange-interpolates ā from A_C (Fig. 1). It needs
// t+1 points; both triggering thresholds guarantee that many.
func (nd *Node) interpolateRow(cs *cstate) bool {
	if cs.aBar != nil {
		return true
	}
	pts := make([]poly.Point, 0, nd.params.T+1)
	for from, alpha := range cs.points {
		pts = append(pts, poly.Point{X: int64(from), Y: alpha})
		if len(pts) == nd.params.T+1 {
			break
		}
	}
	if len(pts) < nd.params.T+1 {
		return false
	}
	aBar, err := poly.InterpolatePoly(nd.params.Group.Q(), pts)
	if err != nil {
		return false
	}
	cs.aBar = aBar
	// A trusted row retires the deferred queue (nothing new defers
	// from here on, so queued points must be counted now or never).
	nd.drainUnverified(cs)
	return true
}

// broadcastReady sends (ready, C, ā(j)) to every node once. The
// extended-mode signature covers only the session/commitment
// transcript, so it is computed once and shared by all n copies.
func (nd *Node) broadcastReady(cs *cstate) {
	if cs.sentReady {
		return
	}
	cs.sentReady = true
	h := cs.h
	var sigBytes []byte
	if nd.params.Extended {
		sb, err := nd.params.Directory.Scheme().Sign(nd.params.SignKey, ReadyTranscript(nd.session, h))
		if err != nil {
			return // cannot sign: this node cannot contribute readies
		}
		sigBytes = sb
	}
	for j := 1; j <= nd.params.N; j++ {
		nd.params.Metrics.ReadySent.Inc()
		out := &ReadyMsg{Session: nd.session, Alpha: cs.aBar.EvalInt(int64(j)), CHash: h, Sig: sigBytes}
		if !nd.hashOnly() {
			out.C = cs.c
			out.Compressed = nd.params.CompressedWire
		}
		nd.sendLogged(msg.NodeID(j), out)
	}
}

// complete finishes Sh: s_i ← ā(0), output shared.
func (nd *Node) complete(cs *cstate) {
	if nd.done {
		return
	}
	if !nd.interpolateRow(cs) {
		return // cannot happen with honest quorums; defensive
	}
	nd.done = true
	nd.params.Metrics.VSSCompleted.Inc()
	nd.trace(telemetry.EvPhase, "vss-completed")
	nd.share = cs.aBar.EvalInt(0)
	nd.outC = cs.c
	if nd.onShared != nil {
		nd.onShared(SharedEvent{Session: nd.session, C: cs.c, Share: new(big.Int).Set(nd.share)})
	}
	nd.drainRecPending()
}

// cstateFor returns (allocating if needed) the state of the well-formed
// dealing c.
func (nd *Node) cstateFor(c *commit.Matrix) *cstate {
	h := c.Hash()
	cs, ok := nd.cstates[h]
	if !ok {
		cs = &cstate{h: h, c: c, points: make(map[msg.NodeID]*big.Int)}
		nd.cstates[h] = cs
	} else if cs.c == nil {
		cs.c = c
	}
	return cs
}

// resolveCommitment returns the cstate for a message carrying either
// the full (well-formed) matrix or only its digest. known is false
// when the digest is not yet associated with a matrix.
func (nd *Node) resolveCommitment(c *commit.Matrix, cHash [32]byte) (*cstate, bool) {
	if c != nil {
		return nd.cstateFor(c), true
	}
	cs, ok := nd.cstates[cHash]
	if ok && cs.c != nil {
		return cs, true
	}
	return nil, false
}

// learnCommitment records the matrix from a send message and replays
// buffered hashed echoes/readies against it.
func (nd *Node) learnCommitment(c *commit.Matrix) { nd.learnCommitmentRow(c, nil) }

// learnCommitmentRow additionally installs the verify-poly-pinned row
// polynomial, so the buffered points (and all later ones) verify by
// scalar evaluation.
func (nd *Node) learnCommitmentRow(c *commit.Matrix, a *poly.Poly) *cstate {
	cs := nd.cstateFor(c)
	h := cs.h
	if a != nil && cs.aRow == nil {
		cs.aRow = a
	}
	// A trusted row polynomial retires the deferred-verification queue:
	// its points now verify by scalar evaluation, and nothing new joins
	// the queue, so drain it here or its points would never be counted.
	nd.drainUnverified(cs)
	// Replay the hashed-mode buffer: cheap when the row polynomial is
	// known, otherwise through the same deferred batch as live points
	// (tagged so their already-burned sender slots stay consumed, as
	// on the direct replay path below).
	buffered := nd.pending[h]
	delete(nd.pending, h)
	applied := make(map[msg.NodeID]uint8, len(buffered))
	for _, pp := range buffered {
		pp.buffered = true
		if nd.deferPoint(cs, pp) {
			continue
		}
		if !nd.pointValid(cs, pp.from, pp.alpha) {
			continue
		}
		nd.applyVerified(cs, pp, applied)
	}
	nd.maybeFlushBatch(cs)
	// A certificate that arrived before the dealer's row can now be
	// applied: the row is the only missing ingredient in cert mode.
	if nd.params.Certificates {
		nd.certResume(h)
	}
	return cs
}

// applyPoint routes a verified point to the echo or ready accumulator.
func (nd *Node) applyPoint(cs *cstate, pp pendingPoint) {
	if pp.ready {
		nd.addReady(cs, pp.from, pp.alpha, pp.sig)
	} else {
		nd.addEcho(cs, pp.from, pp.alpha)
	}
}

// makeEcho builds an echo message in the configured mode.
func (nd *Node) makeEcho(cs *cstate, alpha *big.Int) *EchoMsg {
	out := &EchoMsg{Session: nd.session, Alpha: alpha, CHash: cs.h}
	if !nd.hashOnly() {
		out.C = cs.c
		out.Compressed = nd.params.CompressedWire
	}
	return out
}

// --- dedup fetch (pull-based matrix recovery) ------------------------

// maybeFetch asks the sender of a digest-only echo/ready for the full
// commitment matrix, at most once per (digest, sender) pair. Only the
// dedup configuration pulls: in plain hashed mode the dealer's send is
// the designated carrier, as in the paper. Fetches are not logged in B
// — they are idempotent by construction and a recovering node re-asks
// naturally when buffered points re-arrive.
//
// Asks start only once t+1 distinct peers have referenced the digest:
// below that the dealer's send is more likely late than lost, and
// pulling on the first racing echo would waste on the happy path most
// of what dedup saves. The gate never costs liveness — at least
// n−t−f > t+1 honest peers reference every completing digest, and
// once the gate opens every later message from an unasked sender
// triggers a fresh ask, so some ask always reaches an honest holder.
func (nd *Node) maybeFetch(h [32]byte, from msg.NodeID) {
	if !nd.params.DedupDealings {
		return
	}
	distinct := make(map[msg.NodeID]bool, len(nd.pending[h]))
	for _, pp := range nd.pending[h] {
		distinct[pp.from] = true
	}
	if len(distinct) < nd.params.T+1 {
		return
	}
	asked := nd.fetchAsked[h]
	if asked == nil {
		asked = make(map[msg.NodeID]bool)
		nd.fetchAsked[h] = asked
	}
	if asked[from] {
		return
	}
	asked[from] = true
	nd.sender.Send(from, &FetchMsg{Session: nd.session, CHash: h})
}

// handleFetch serves a referenced matrix to a requester, once per
// (digest, requester). Any node that resolved the digest may serve it,
// whether or not its own sends dedup — the reply is self-
// authenticating, so serving is always safe.
func (nd *Node) handleFetch(from msg.NodeID, m *FetchMsg) {
	if m.Session != nd.session {
		return
	}
	cs, ok := nd.cstates[m.CHash]
	if !ok || cs.c == nil {
		return
	}
	served := nd.fetchServed[m.CHash]
	if served == nil {
		served = make(map[msg.NodeID]bool)
		nd.fetchServed[m.CHash] = served
	}
	if served[from] {
		return
	}
	served[from] = true
	nd.sender.Send(from, &MatrixMsg{Session: nd.session, C: cs.c, Compressed: nd.params.CompressedWire})
}

// handleMatrix installs a fetched matrix. The reply authenticates
// itself — its digest is recomputed from the decoded entries — so it
// is accepted from anyone, but only while points are actually buffered
// under that digest: an unsolicited matrix for a digest nobody
// referenced cannot allocate state.
func (nd *Node) handleMatrix(from msg.NodeID, m *MatrixMsg) {
	if m.Session != nd.session || !nd.wellFormed(m.C) {
		return
	}
	if len(nd.pending[m.C.Hash()]) == 0 {
		return
	}
	nd.learnCommitment(m.C)
}

// --- crash recovery (Fig. 1 recover/help) ---------------------------

// StartRecover is the (P_d, τ, in, recover) operator message: ask all
// nodes for help and retransmit everything we previously sent.
func (nd *Node) StartRecover() {
	for j := 1; j <= nd.params.N; j++ {
		nd.sender.Send(msg.NodeID(j), &HelpMsg{Session: nd.session})
	}
	nd.ResendLog()
}

// ResendLog retransmits the entire outgoing log B (recovery of the
// sending side). Retransmissions are not re-logged. Destinations are
// walked in ascending NodeID order so the recovery schedule is a pure
// function of protocol state and seeded simulations replay
// event-for-event.
func (nd *Node) ResendLog() {
	for j := 1; j <= nd.params.N; j++ {
		for _, b := range nd.outLog[msg.NodeID(j)] {
			nd.sender.Send(msg.NodeID(j), b)
		}
	}
}

// ResendLoggedTo retransmits B_ℓ, the logged messages destined for
// one node. The DKG layer uses this to serve session-level help
// requests covering all embedded VSS instances with one message.
func (nd *Node) ResendLoggedTo(to msg.NodeID) {
	for _, b := range nd.outLog[to] {
		nd.sender.Send(to, b)
	}
}

// handleHelp: serve retransmission requests within the d(κ) budgets.
func (nd *Node) handleHelp(from msg.NodeID, m *HelpMsg) {
	if m.Session != nd.session {
		return
	}
	if nd.helpFrom[from] > nd.params.HelpPerNode() || nd.helpTotal > nd.params.HelpTotal() {
		return
	}
	nd.helpFrom[from]++
	nd.helpTotal++
	nd.params.Metrics.HelpRequests.Inc()
	nd.trace(telemetry.EvHelp, "vss-help-served")
	for _, b := range nd.outLog[from] {
		nd.sender.Send(from, b)
	}
}

// trace emits one timeline event when tracing is enabled; the detail
// strings are constants so the disabled path allocates nothing.
func (nd *Node) trace(kind telemetry.EventKind, detail string) {
	nd.params.Trace.Emit(nd.params.TraceSID, int64(nd.self), 0, kind, detail)
}

// sendLogged sends and records the message in B for later
// retransmission. Renewal-sensitive polynomials are redacted from the
// log by the proactive layer (see EraseDealingSecrets).
func (nd *Node) sendLogged(to msg.NodeID, body msg.Body) {
	nd.outLog[to] = append(nd.outLog[to], body)
	nd.sender.Send(to, body)
}

// EraseDealingSecrets redacts stored send messages so retransmissions
// carry only commitments (share renewal §5.2: "while retransmitting
// send messages during a node recovery, only the commitments are
// sent"). It is invoked by the proactive layer right after dealing.
func (nd *Node) EraseDealingSecrets() {
	for to, bodies := range nd.outLog {
		for i, b := range bodies {
			if sm, ok := b.(*SendMsg); ok {
				nd.outLog[to][i] = &SendMsg{Session: sm.Session, C: sm.C, OmitPoly: true, Compressed: sm.Compressed}
			}
		}
	}
}

// --- Rec protocol ----------------------------------------------------

// StartReconstruct is the (P_d, τ, in, reconstruct) operator message.
func (nd *Node) StartReconstruct() error {
	if !nd.done {
		return ErrNotDone
	}
	if nd.recStarted {
		return nil
	}
	nd.recStarted = true
	for j := 1; j <= nd.params.N; j++ {
		nd.sender.Send(msg.NodeID(j), &RecShareMsg{Session: nd.session, Share: new(big.Int).Set(nd.share)})
	}
	return nil
}

// handleRecShare collects verified shares and interpolates the secret
// once t+1 are available.
func (nd *Node) handleRecShare(from msg.NodeID, m *RecShareMsg) {
	if m.Session != nd.session || nd.reconstructed != nil {
		return
	}
	if !nd.done {
		// Cannot verify before the commitment is decided; stash.
		nd.recPending = append(nd.recPending, *m)
		nd.recPendingSrc = append(nd.recPendingSrc, from)
		return
	}
	nd.acceptRecShare(from, m.Share)
}

func (nd *Node) acceptRecShare(from msg.NodeID, share *big.Int) {
	if nd.recSeen[from] || nd.reconstructed != nil {
		return
	}
	if share == nil || !nd.outC.VerifyShare(int64(from), share) {
		return
	}
	nd.recSeen[from] = true
	nd.recPoints = append(nd.recPoints, poly.Point{X: int64(from), Y: share})
	if len(nd.recPoints) == nd.params.T+1 {
		z, err := poly.Interpolate(nd.params.Group.Q(), nd.recPoints, 0)
		if err != nil {
			return
		}
		nd.reconstructed = z
		if nd.onReconstructed != nil {
			nd.onReconstructed(ReconstructedEvent{Session: nd.session, Value: new(big.Int).Set(z)})
		}
	}
}

// drainRecPending re-processes shares that arrived before Sh finished.
func (nd *Node) drainRecPending() {
	pend, src := nd.recPending, nd.recPendingSrc
	nd.recPending, nd.recPendingSrc = nil, nil
	for i := range pend {
		nd.acceptRecShare(src[i], pend[i].Share)
	}
}
