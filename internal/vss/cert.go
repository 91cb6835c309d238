package vss

// Certificate mode (Params.Certificates): the subquadratic replacement
// for the Fig. 1 echo/ready floods. Per commitment hash, a signer
// committee and a relay committee are sampled deterministically from
// the session identity and the hash (sig.SampleCommittee), so every
// node derives the same sets with no extra rounds and a dealer gets no
// post-hoc freedom to re-roll the sample for a published dealing.
//
//   - Instead of echoing to all n nodes, a committee signer sends one
//     signed echo attestation to the relays (certSendEcho).
//   - A relay that collects an echo quorum of the committee assembles
//     a certificate and multicasts it once (handleCertSign).
//   - A receiver verifies the whole certificate in one batched
//     multi-exponentiation (handleCert → sig.VerifyCertificate) and
//     treats it as the echo-threshold crossing; committee signers then
//     attest ready the same way, and a ready certificate completes the
//     sharing (certComplete).
//
// Certificates carry no evaluation points, so cert-mode completion
// uses the dealer's verify-poly-pinned row aRow as ā (by symmetry of
// f they are the same polynomial). A certificate can therefore only be
// applied after the dealer's send was accepted; until then it parks in
// the certState and learnCommitmentRow resumes it (certResume).
//
// Liveness never drops below the flood protocol: the DKG layer arms a
// timer and calls TriggerCertFallback when certificates stall, which
// floods the suppressed echoes/readies through the unchanged classic
// path.

import (
	"bytes"
	"sort"

	"hybriddkg/internal/msg"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/telemetry"
)

// certDomain seeds the per-commitment committee sample.
const certDomain = "hybriddkg/vss-cert/v1"

// CertCommittee returns the signer/relay committees for one VSS
// commitment: a pure function of (n, t, session, cHash), so every node
// — and the DKG layer validating cert-backed ready proofs — derives
// the same sets.
func CertCommittee(n, t int, session SessionID, cHash [32]byte) sig.Committee {
	w := msg.NewWriter(16)
	session.encode(w)
	return sig.SampleCommittee(certDomain, n, t, w.Bytes(), cHash[:])
}

// certState is the per-commitment certificate bookkeeping: the sampled
// committee, this node's signer-side progress, the relay-side
// collections, and receiver-side application state.
type certState struct {
	comm sig.Committee

	// Signer side.
	signedEcho  bool // echo attestation sent to the relays
	signedReady bool // ready attestation sent to the relays
	// readySignaled records that an echo certificate justified a ready
	// for this commitment, so the flood fallback knows to broadcast the
	// classic ready message.
	readySignaled bool

	// Receiver side.
	echoDone     bool             // echo certificate verified and applied
	readyDone    bool             // ready certificate verified and applied
	pendingEcho  bool             // echo cert arrived before the dealer's row
	pendingReady *sig.Certificate // ready cert arrived before the dealer's row

	// Relay side: collected certificate-form signatures per phase.
	relayEcho     map[int64][]byte
	relayReady    map[int64][]byte
	echoCertSent  bool
	readyCertSent bool
}

// certStateFor returns (allocating if needed) the certificate state
// for one commitment hash.
func (nd *Node) certStateFor(h [32]byte) *certState {
	cst := nd.certs[h]
	if cst == nil {
		cst = &certState{
			comm:       CertCommittee(nd.params.N, nd.params.T, nd.session, h),
			relayEcho:  make(map[int64][]byte),
			relayReady: make(map[int64][]byte),
		}
		nd.certs[h] = cst
	}
	return cst
}

// certSendEcho is the certificate-mode replacement for the echo flood:
// a committee signer sends one signed attestation to each relay. Nodes
// outside the signer committee send nothing — the committee quorum
// carries the agreement weight.
func (nd *Node) certSendEcho(h [32]byte) {
	cst := nd.certStateFor(h)
	if cst.signedEcho {
		return
	}
	cst.signedEcho = true
	if !cst.comm.IsSigner(int64(nd.self)) {
		return
	}
	sb, err := nd.params.Directory.Scheme().Sign(nd.params.SignKey, EchoTranscript(nd.session, h))
	if err != nil {
		return
	}
	for _, rel := range cst.comm.Relays {
		nd.params.Metrics.EchoSent.Inc()
		nd.sendLogged(msg.NodeID(rel), &CertSignMsg{Session: nd.session, Phase: CertEcho, CHash: h, Sig: sb})
	}
}

// certSendReady sends this signer's ready attestation to the relays,
// once, after an echo certificate (or resumed equivalent) justified it.
func (nd *Node) certSendReady(h [32]byte, cst *certState) {
	if cst.signedReady || !cst.comm.IsSigner(int64(nd.self)) {
		return
	}
	cst.signedReady = true
	sb, err := nd.params.Directory.Scheme().Sign(nd.params.SignKey, ReadyTranscript(nd.session, h))
	if err != nil {
		return
	}
	for _, rel := range cst.comm.Relays {
		nd.params.Metrics.ReadySent.Inc()
		nd.sendLogged(msg.NodeID(rel), &CertSignMsg{Session: nd.session, Phase: CertReady, CHash: h, Sig: sb})
	}
}

// handleCertSign is the relay role: admit one committee member's
// attestation (verifying its scheme signature and re-encoding it to
// certificate form), and on reaching the phase quorum assemble the
// certificate and multicast it to all n nodes.
func (nd *Node) handleCertSign(from msg.NodeID, m *CertSignMsg) {
	if !nd.params.Certificates || m.Session != nd.session {
		return
	}
	if m.Phase != CertEcho && m.Phase != CertReady {
		return
	}
	cst := nd.certStateFor(m.CHash)
	if !cst.comm.IsRelay(int64(nd.self)) || !cst.comm.IsSigner(int64(from)) {
		return
	}
	coll, sent := cst.relayEcho, &cst.echoCertSent
	transcript, quorum := EchoTranscript(nd.session, m.CHash), cst.comm.EchoQuorum()
	detail := "vss-echo-cert-assembled"
	if m.Phase == CertReady {
		coll, sent = cst.relayReady, &cst.readyCertSent
		transcript, quorum = ReadyTranscript(nd.session, m.CHash), cst.comm.ReadyQuorum()
		detail = "vss-ready-cert-assembled"
	}
	if *sent || coll[int64(from)] != nil {
		return
	}
	prepared := sig.PrepareCertSig(nd.params.Directory, int64(from), transcript, m.Sig)
	if prepared == nil {
		return
	}
	coll[int64(from)] = prepared
	if len(coll) < quorum {
		return
	}
	*sent = true
	cert := assembleCertificate(coll)
	nd.params.Metrics.CertAssembled.Inc()
	nd.trace(telemetry.EvCert, detail)
	for j := 1; j <= nd.params.N; j++ {
		nd.sendLogged(msg.NodeID(j), &CertMsg{Session: nd.session, Phase: m.Phase, CHash: m.CHash, Cert: cert})
	}
}

// assembleCertificate builds the canonical (sorted-signers) certificate
// from a relay's collection.
func assembleCertificate(coll map[int64][]byte) *sig.Certificate {
	signers := make([]int64, 0, len(coll))
	for s := range coll {
		signers = append(signers, s)
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	sigs := make([][]byte, len(signers))
	for i, s := range signers {
		sigs[i] = coll[s]
	}
	return &sig.Certificate{Signers: signers, Sigs: sigs}
}

// handleCert is the receiver role: structural checks, committee
// membership, phase quorum, then one batched multi-exp verification of
// every signature; an echo certificate stands in for the echo-threshold
// crossing, a ready certificate for the completion quorum.
func (nd *Node) handleCert(from msg.NodeID, m *CertMsg) {
	if !nd.params.Certificates || m.Session != nd.session || m.Cert == nil {
		return
	}
	cst := nd.certStateFor(m.CHash)
	var quorum int
	var transcript []byte
	switch m.Phase {
	case CertEcho:
		if cst.echoDone {
			return
		}
		quorum, transcript = cst.comm.EchoQuorum(), EchoTranscript(nd.session, m.CHash)
	case CertReady:
		if cst.readyDone {
			return
		}
		quorum, transcript = cst.comm.ReadyQuorum(), ReadyTranscript(nd.session, m.CHash)
	default:
		return
	}
	if len(m.Cert.Signers) < quorum {
		return
	}
	for _, s := range m.Cert.Signers {
		if !cst.comm.IsSigner(s) {
			return
		}
	}
	if err := sig.VerifyCertificateCached(nd.params.Directory, nd.params.N, transcript, m.Cert); err != nil {
		nd.trace(telemetry.EvCert, "vss-cert-rejected")
		return
	}
	if m.Phase == CertEcho {
		cst.echoDone = true
		nd.params.Metrics.EchoQuorums.Inc()
		nd.trace(telemetry.EvCert, "vss-echo-cert-applied")
		nd.certOnEchoQuorum(m.CHash, cst)
	} else {
		cst.readyDone = true
		nd.trace(telemetry.EvCert, "vss-ready-cert-applied")
		nd.certComplete(m.CHash, cst, m.Cert)
	}
}

// certOnEchoQuorum applies a verified echo certificate: adopt the
// dealer's row as ā (certificates carry no points to interpolate from)
// and attest ready. Without the row yet, park and let certResume retry
// when the send arrives.
func (nd *Node) certOnEchoQuorum(h [32]byte, cst *certState) {
	cs, ok := nd.cstates[h]
	if !ok || cs.aRow == nil {
		cst.pendingEcho = true
		return
	}
	if cs.aBar == nil {
		cs.aBar = cs.aRow
		nd.drainUnverified(cs)
	}
	cst.readySignaled = true
	nd.certSendReady(h, cst)
}

// certComplete applies a verified ready certificate: adopt the dealer's
// row as ā, convert the certificate signatures back to the scheme
// encoding so they serve as the R_d ready proof, and finish Sh through
// the ordinary completion path.
func (nd *Node) certComplete(h [32]byte, cst *certState, cert *sig.Certificate) {
	cs, ok := nd.cstates[h]
	if !ok || cs.aRow == nil {
		cst.pendingReady = cert
		return
	}
	if nd.done {
		return
	}
	if cs.aBar == nil {
		cs.aBar = cs.aRow
		nd.drainUnverified(cs)
	}
	transcript := ReadyTranscript(nd.session, h)
	proof := make([]SignedReady, 0, len(cert.Signers))
	for i, signer := range cert.Signers {
		native := sig.CertSigToScheme(nd.params.Directory, signer, transcript, cert.Sigs[i])
		if native == nil {
			return
		}
		proof = append(proof, SignedReady{Signer: msg.NodeID(signer), Sig: native})
	}
	// The certificate was verified as a whole: its signatures are the
	// proof as they stand.
	nd.certProof = proof
	nd.params.Metrics.ReadyQuorums.Inc()
	nd.trace(telemetry.EvQuorum, "vss-cert-ready-quorum")
	nd.complete(cs)
}

// certResume retries certificates that arrived before the dealer's
// send; learnCommitmentRow calls it once the row is installed.
func (nd *Node) certResume(h [32]byte) {
	cst := nd.certs[h]
	if cst == nil {
		return
	}
	if cst.pendingEcho {
		cst.pendingEcho = false
		nd.certOnEchoQuorum(h, cst)
	}
	if cert := cst.pendingReady; cert != nil {
		cst.pendingReady = nil
		nd.certComplete(h, cst, cert)
	}
}

// TriggerCertFallback degrades to the classic flood protocol: flood
// the suppressed echoes for every commitment whose dealer row is held,
// broadcast the classic ready where an echo certificate already
// justified one, and route all later sends through the flood path. The
// DKG layer invokes it from its certificate-stall timer; it is
// idempotent and a no-op outside certificate mode.
func (nd *Node) TriggerCertFallback() {
	if !nd.params.Certificates || nd.certFloodActive {
		return
	}
	nd.certFloodActive = true
	if nd.done {
		return
	}
	nd.params.Metrics.CertFallbacks.Inc()
	nd.trace(telemetry.EvCert, "vss-cert-fallback")
	hashes := make([][32]byte, 0, len(nd.cstates))
	for h := range nd.cstates {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return bytes.Compare(hashes[i][:], hashes[j][:]) < 0 })
	for _, h := range hashes {
		cs := nd.cstates[h]
		nd.floodEchoes(cs)
		if cst := nd.certs[h]; cst != nil && cst.readySignaled {
			if nd.interpolateRow(cs) {
				nd.broadcastReady(cs)
			}
		}
	}
}
