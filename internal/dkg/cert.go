package dkg

// Certificate mode for the DKG's own reliable-broadcast phases
// (Params.Certificates). The classic Fig. 2 flow floods every signed
// echo and ready to all n nodes — Θ(n²) messages per proposal. In
// certificate mode each node instead sends its signature to a small
// relay committee sampled deterministically from (τ, proposal digest);
// a relay that collects a quorum assembles one certificate and
// multicasts it, and receivers verify the whole certificate with a
// single batched multi-exponentiation (sig.VerifyCertificate).
//
// The committee is sampled over the *signer* population too: only
// committee signers contribute signatures, so a certificate carries
// O(t + log n) signatures instead of O(n). Quorum intersection then
// holds within the committee (s ≥ 3t_s+1 with t_s ≥ t), giving the
// same locking/decide safety argument as the flood path.
//
// Liveness is timer-guarded: every node arms one fallback timer (the
// CertFallbackTimer sentinel) as soon as it participates in a
// certificate-mode session. If the session has not completed when it
// fires — relays crashed, or a certificate was withheld — the node
// floods its suppressed classic echo/ready messages and tells every
// embedded VSS instance to do the same, degrading to the plain
// quadratic protocol.

import (
	"sort"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/telemetry"
	"hybriddkg/internal/vss"
)

// certDomain separates DKG-level committee sampling from the VSS
// layer's ("hybriddkg/vss-cert/v1").
const certDomain = "hybriddkg/dkg-cert/v1"

// CertFallbackTimer is the sentinel timer id for the certificate
// fallback. View timers use the (small) target view number as id, so
// the maximum uint64 can never collide. The timer is armed directly on
// the runtime — never through armedTimers — so decide's stopAllTimers
// cannot cancel it while certificate-mode VSS completions are still
// outstanding.
const CertFallbackTimer = ^uint64(0)

// dcertState is the per-proposal-digest certificate state.
type dcertState struct {
	comm sig.Committee
	prop *Proposal // slim, for self-contained relay multicasts

	signedEcho  bool // our echo signature handed to the relays
	signedReady bool
	echoDone    bool // a valid echo certificate was applied
	readyDone   bool

	// Relay role: signatures collected per phase, re-encoded by
	// sig.PrepareCertSig for batch verification.
	relayEcho     map[int64][]byte
	relayReady    map[int64][]byte
	echoCertSent  bool
	readyCertSent bool
}

// certCommittee samples the signer/relay committee for a proposal
// digest. Pure function of (τ, digest): every node derives the same
// committee, and an adversary cannot grind it without changing the
// proposal itself.
func (nd *Node) certCommittee(digest [32]byte) sig.Committee {
	var tau [8]byte
	for i := 0; i < 8; i++ {
		tau[i] = byte(nd.tau >> (8 * (7 - i)))
	}
	return sig.SampleCommittee(certDomain, nd.params.N, nd.params.T, tau[:], digest[:])
}

func (nd *Node) dcertFor(prop *Proposal, digest [32]byte) *dcertState {
	dc, ok := nd.dcerts[digest]
	if !ok {
		dc = &dcertState{
			comm:       nd.certCommittee(digest),
			prop:       prop.Slim(),
			relayEcho:  make(map[int64][]byte),
			relayReady: make(map[int64][]byte),
		}
		nd.dcerts[digest] = dc
	}
	return dc
}

// armCertFallback arms the fallback timer once, lazily: the simulated
// and TCP runtimes only accept timers for registered nodes, so arming
// happens on first participation (Start or first handled message)
// rather than at construction.
func (nd *Node) armCertFallback() {
	if !nd.params.Certificates || nd.certTimerArmed || nd.done {
		return
	}
	nd.certTimerArmed = true
	nd.runtime.SetTimer(CertFallbackTimer, nd.params.TimeoutBase)
}

// certSendPhase hands this node's echo/ready signature to the relay
// committee (signers only; everyone keeps the suppressed classic
// message for fallback).
func (nd *Node) certSendPhase(phase uint8, prop *Proposal, digest [32]byte, sigBytes []byte) {
	dc := nd.dcertFor(prop, digest)
	sent := &dc.signedEcho
	if phase == vss.CertReady {
		sent = &dc.signedReady
	}
	if *sent {
		return
	}
	*sent = true
	if !dc.comm.IsSigner(int64(nd.self)) {
		return
	}
	out := &CertSignMsg{Tau: nd.tau, Phase: phase, Prop: dc.prop, Sig: sigBytes}
	for _, relay := range dc.comm.Relays {
		nd.sendLogged(msg.NodeID(relay), out)
	}
}

// handleCertSign is the relay role: collect committee signatures for a
// proposal digest and multicast one certificate at quorum.
func (nd *Node) handleCertSign(from msg.NodeID, m *CertSignMsg) {
	if !nd.params.Certificates || m.Tau != nd.tau || m.Prop == nil {
		return
	}
	if m.Phase != vss.CertEcho && m.Phase != vss.CertReady {
		return
	}
	if err := m.Prop.WellFormedBase(nd.params.N, nd.params.QSize); err != nil {
		return
	}
	digest := m.Prop.Digest(nd.tau)
	dc := nd.dcertFor(m.Prop, digest)
	if !dc.comm.IsRelay(int64(nd.self)) || !dc.comm.IsSigner(int64(from)) {
		return
	}
	coll, sent := dc.relayEcho, &dc.echoCertSent
	transcriptBytes := EchoTranscript(nd.tau, digest)
	quorum := dc.comm.EchoQuorum()
	detail := "dkg-echo-cert-assembled"
	if m.Phase == vss.CertReady {
		coll, sent = dc.relayReady, &dc.readyCertSent
		transcriptBytes = ReadyTranscript(nd.tau, digest)
		quorum = dc.comm.ReadyQuorum()
		detail = "dkg-ready-cert-assembled"
	}
	if *sent || coll[int64(from)] != nil {
		return
	}
	prepared := sig.PrepareCertSig(nd.params.Directory, int64(from), transcriptBytes, m.Sig)
	if prepared == nil {
		return
	}
	coll[int64(from)] = prepared
	if len(coll) < quorum {
		return
	}
	*sent = true
	nd.params.Metrics.CertAssembled.Inc()
	nd.trace(telemetry.EvCert, detail)
	out := &CertMsg{Tau: nd.tau, Phase: m.Phase, Prop: dc.prop, Cert: assembleCert(coll)}
	for j := 1; j <= nd.params.N; j++ {
		nd.sendLogged(msg.NodeID(j), out)
	}
}

// assembleCert freezes a relay's collected signatures into a
// certificate with a canonically sorted signer list.
func assembleCert(coll map[int64][]byte) *sig.Certificate {
	signers := make([]int64, 0, len(coll))
	for id := range coll {
		signers = append(signers, id)
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	cert := &sig.Certificate{
		Signers: signers,
		Sigs:    make([][]byte, len(signers)),
	}
	for i, id := range signers {
		cert.Sigs[i] = coll[id]
	}
	return cert
}

// handleCert is the receiver role: one batched verification of the
// whole certificate replaces quorum-many per-message checks; an echo
// certificate substitutes for the classic echo threshold, a ready
// certificate for the ready threshold (decide).
func (nd *Node) handleCert(from msg.NodeID, m *CertMsg) {
	if !nd.params.Certificates || m.Tau != nd.tau || nd.done || m.Cert == nil || m.Prop == nil {
		return
	}
	if err := m.Prop.WellFormedBase(nd.params.N, nd.params.QSize); err != nil {
		return
	}
	digest := m.Prop.Digest(nd.tau)
	dc := nd.dcertFor(m.Prop, digest)
	var transcriptBytes []byte
	var quorum int
	switch m.Phase {
	case vss.CertEcho:
		if dc.echoDone {
			return
		}
		transcriptBytes = EchoTranscript(nd.tau, digest)
		quorum = dc.comm.EchoQuorum()
	case vss.CertReady:
		if dc.readyDone {
			return
		}
		transcriptBytes = ReadyTranscript(nd.tau, digest)
		quorum = dc.comm.ReadyQuorum()
	default:
		return
	}
	if len(m.Cert.Signers) < quorum {
		return
	}
	for _, s := range m.Cert.Signers {
		if !dc.comm.IsSigner(s) {
			return
		}
	}
	if err := sig.VerifyCertificateCached(nd.params.Directory, nd.params.N, transcriptBytes, m.Cert); err != nil {
		nd.trace(telemetry.EvCert, "dkg-cert-rejected")
		return
	}
	sigs := nd.certQSigs(transcriptBytes, m.Cert)
	if sigs == nil {
		return
	}
	qs := nd.qstate(m.Prop)
	if m.Phase == vss.CertEcho {
		dc.echoDone = true
		nd.params.Metrics.DKGEchoQ.Inc()
		nd.trace(telemetry.EvCert, "dkg-echo-cert-applied")
		nd.lockAndReady(qs, KindEcho, sigs)
		return
	}
	dc.readyDone = true
	nd.params.Metrics.DKGReadyQ.Inc()
	nd.trace(telemetry.EvCert, "dkg-ready-cert-applied")
	if len(qs.ready.sigs) == 0 {
		qs.ready.sigs, qs.ready.checked = sigs, len(sigs)
	}
	nd.decide(qs)
}

// certQSigs converts a certificate's (R, z) pairs back into the native
// scheme encoding so they can serve as lock/proposal proofs verifiable
// by Directory.Verify (lead-ch material, leader proposals).
func (nd *Node) certQSigs(transcriptBytes []byte, cert *sig.Certificate) []SignedQ {
	out := make([]SignedQ, 0, len(cert.Signers))
	for i, signer := range cert.Signers {
		native := sig.CertSigToScheme(nd.params.Directory, signer, transcriptBytes, cert.Sigs[i])
		if native == nil {
			return nil
		}
		out = append(out, SignedQ{Signer: msg.NodeID(signer), Sig: native})
	}
	return out
}

// certFallback degrades to the flood path: flood every suppressed
// classic DKG message and trigger the same fallback in all embedded
// VSS instances. Latched — once flooding, the session stays in flood
// mode so the classic thresholds can be met.
func (nd *Node) certFallback() {
	if !nd.params.Certificates || nd.certFloodActive {
		return
	}
	nd.certFloodActive = true
	if nd.done {
		return
	}
	nd.trace(telemetry.EvCert, "dkg-cert-fallback")
	// Index order keeps same-seed runs deterministic.
	for d := 1; d <= nd.params.N; d++ {
		nd.vssNodes[msg.NodeID(d)].TriggerCertFallback()
	}
	for _, body := range nd.certSuppressed {
		for j := 1; j <= nd.params.N; j++ {
			nd.sendLogged(msg.NodeID(j), body)
		}
	}
	nd.certSuppressed = nil
	// The timer firing means this node is stuck — and certificate mode
	// concentrates delivery in few hands (one dealer send per sharing,
	// a handful of relays per quorum), so "stuck" usually means a frame
	// this node needed was lost. Flooding our withheld votes repairs
	// the sending side; the paper's budgeted help protocol repairs the
	// receiving side, retransmitting our logs and asking every peer to
	// replay what it sent us. Receivers are first-time-guarded, so the
	// duplicates this produces are absorbed.
	nd.HandleRecover()
}
