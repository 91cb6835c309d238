package verify

import (
	"hybriddkg/internal/dkg"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/vss"
)

// Speculator inspects protocol messages addressed to one node and
// schedules their signature checks on the worker pool before the
// node's state machine consumes them: DKG lead-ch signatures, the
// leader-change proof of a later view's send, and certificate-mode
// attestations and certificates all run through the shared
// sig.Directory, whose verification memo turns the inline re-check
// into a hit (enable it with Directory.EnableVerifyCache).
//
// Flood-mode echo and ready traffic is not speculated on, at either
// layer. VSS points are checked by one polynomial evaluation once the
// dealer's row is known. Echo and ready signatures, VSS and DKG alike,
// are checked only where they become evidence: when a proof set is
// used (vss.Node.ReadyProof) or the DKG lock draws its M set. The proof
// sets inside a send or lead-ch are checked inline: followers skip most
// of a leader's R̂, having completed the same sharings, and lead-ch is
// rare.
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
		s.leaderProof(m.Tau, m.View, m.LeaderProof)
	case *dkg.LeadChMsg:
		if len(m.Sig) > 0 {
			tau, view, sigBytes := m.Tau, m.NewView, m.Sig
			s.pool.Submit(func() {
				s.dir.Speculate(int64(from), dkg.LeadChTranscript(tau, view), sigBytes)
			})
		}
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
