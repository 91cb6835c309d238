package verify

import (
	"hybriddkg/internal/dkg"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/vss"
)

// Speculator inspects protocol messages addressed to one node and
// schedules their signature checks on the worker pool before the
// node's state machine consumes them: DKG echo/ready/lead-ch
// signatures, the proof sets inside DKG proposals, and certificate-mode
// attestations and certificates all run through the shared
// sig.Directory, whose verification memo turns the inline re-check
// into a hit (enable it with Directory.EnableVerifyCache).
//
// VSS traffic in flood mode is not speculated on. Its points are
// checked by one polynomial evaluation once the dealer's row is known,
// and a ready's signature is checked only if its proof set is used
// (vss.Node.ReadyProof).
//
// Observe is safe for concurrent use (transport read loops call it
// from several goroutines) and never blocks: it only builds closures
// and feeds the pool, which sheds load rather than queueing unbounded.
// Speculation is strictly best-effort — every check it performs is a
// pure function the state machine would otherwise compute inline, so
// protocol behaviour is bit-identical with or without it.
type Speculator struct {
	pool *Pool
	dir  *sig.Directory
}

// NewSpeculator builds the speculation stage over a worker pool and
// the directory whose memo the state machines consult.
func NewSpeculator(pool *Pool, dir *sig.Directory) *Speculator {
	if pool == nil || dir == nil {
		panic("verify: speculator needs a pool and a directory")
	}
	return &Speculator{pool: pool, dir: dir}
}

// Observe inspects one inbound message and schedules its speculative
// checks. Unknown body types are ignored.
func (s *Speculator) Observe(from msg.NodeID, body msg.Body) {
	switch m := body.(type) {
	case *dkg.SendMsg:
		s.proposal(m.Prop, m.Tau)
		s.leaderProof(m.Tau, m.View, m.LeaderProof)
	case *dkg.EchoMsg:
		s.qsig(from, m.Tau, m.Prop, m.Sig, false)
	case *dkg.ReadyMsg:
		s.qsig(from, m.Tau, m.Prop, m.Sig, true)
	case *dkg.LeadChMsg:
		if len(m.Sig) > 0 {
			tau, view, sigBytes := m.Tau, m.NewView, m.Sig
			s.pool.Submit(func() {
				s.dir.Speculate(int64(from), dkg.LeadChTranscript(tau, view), sigBytes)
			})
		}
		s.proposal(m.Prop, m.Tau)
	case *vss.CertSignMsg:
		if len(m.Sig) > 0 {
			session, cHash, phase, sigBytes := m.Session, m.CHash, m.Phase, m.Sig
			s.pool.Submit(func() {
				s.dir.Speculate(int64(from), vssCertTranscript(session, cHash, phase), sigBytes)
			})
		}
	case *vss.CertMsg:
		if m.Cert != nil {
			session, cHash, phase := m.Session, m.CHash, m.Phase
			s.certificate(func() []byte { return vssCertTranscript(session, cHash, phase) }, m.Cert)
		}
	case *dkg.CertSignMsg:
		if len(m.Sig) > 0 && m.Prop != nil {
			tau, prop, phase, sigBytes := m.Tau, m.Prop, m.Phase, m.Sig
			s.pool.Submit(func() {
				s.dir.Speculate(int64(from), dkgCertTranscript(tau, prop, phase), sigBytes)
			})
		}
	case *dkg.CertMsg:
		if m.Cert != nil && m.Prop != nil {
			tau, prop, phase := m.Tau, m.Prop, m.Phase
			s.certificate(func() []byte { return dkgCertTranscript(tau, prop, phase) }, m.Cert)
		}
	}
}

// certificate schedules the batched certificate check through the
// directory's memo, so the state machine's inline
// VerifyCertificateCached call lands a cache hit. The transcript
// closure runs on the worker (digest computation included).
func (s *Speculator) certificate(transcript func() []byte, cert *sig.Certificate) {
	n := len(s.dir.Nodes())
	s.pool.Submit(func() {
		sig.SpeculateCertificate(s.dir, n, transcript(), cert)
	})
}

func vssCertTranscript(session vss.SessionID, cHash [32]byte, phase uint8) []byte {
	if phase == vss.CertReady {
		return vss.ReadyTranscript(session, cHash)
	}
	return vss.EchoTranscript(session, cHash)
}

func dkgCertTranscript(tau uint64, prop *dkg.Proposal, phase uint8) []byte {
	digest := prop.Digest(tau)
	if phase == vss.CertReady {
		return dkg.ReadyTranscript(tau, digest)
	}
	return dkg.EchoTranscript(tau, digest)
}

// qsig schedules the signature check of a DKG echo/ready message; the
// proposal digest is computed on the worker, not the caller.
func (s *Speculator) qsig(from msg.NodeID, tau uint64, prop *dkg.Proposal, sigBytes []byte, ready bool) {
	if prop == nil || len(sigBytes) == 0 {
		return
	}
	s.pool.Submit(func() {
		digest := prop.Digest(tau)
		transcript := dkg.EchoTranscript(tau, digest)
		if ready {
			transcript = dkg.ReadyTranscript(tau, digest)
		}
		s.dir.Speculate(int64(from), transcript, sigBytes)
	})
}

// proposal schedules the validity-proof checks of a full DKG proposal
// (leader send or lead-ch material): per-dealer VSS ready-proof sets,
// or the echo/ready quorum signatures over the proposal digest. One
// task per proof set keeps task granularity near one multi-exp.
func (s *Speculator) proposal(p *dkg.Proposal, tau uint64) {
	if p == nil {
		return
	}
	switch p.Kind {
	case dkg.KindVSS:
		if len(p.VSSProofs) != len(p.Q) || len(p.CHashes) != len(p.Q) {
			return
		}
		for i := range p.Q {
			dealer, cHash, proof := p.Q[i], p.CHashes[i], p.VSSProofs[i]
			if len(proof) == 0 {
				continue
			}
			s.pool.Submit(func() {
				transcript := vss.ReadyTranscript(vss.SessionID{Dealer: dealer, Tau: tau}, cHash)
				for _, sr := range proof {
					s.dir.Speculate(int64(sr.Signer), transcript, sr.Sig)
				}
			})
		}
	case dkg.KindEcho, dkg.KindReady:
		if len(p.QSigs) == 0 {
			return
		}
		kind, sigs, prop := p.Kind, p.QSigs, p
		s.pool.Submit(func() {
			digest := prop.Digest(tau)
			transcript := dkg.EchoTranscript(tau, digest)
			if kind == dkg.KindReady {
				transcript = dkg.ReadyTranscript(tau, digest)
			}
			for _, q := range sigs {
				s.dir.Speculate(int64(q.Signer), transcript, q.Sig)
			}
		})
	}
}

// leaderProof schedules the signed lead-ch set legitimising a view>1
// leader proposal.
func (s *Speculator) leaderProof(tau, view uint64, proof []dkg.SignedQ) {
	if len(proof) == 0 {
		return
	}
	s.pool.Submit(func() {
		transcript := dkg.LeadChTranscript(tau, view)
		for _, q := range proof {
			s.dir.Speculate(int64(q.Signer), transcript, q.Sig)
		}
	})
}
