package dkg

import (
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/sig"
	"hybriddkg/internal/vss"
)

// certNullRT discards all I/O: these tests drive a single node by
// hand and only inspect its state transitions.
type certNullRT struct{}

func (certNullRT) Send(msg.NodeID, msg.Body) {}
func (certNullRT) SetTimer(uint64, int64)    {}
func (certNullRT) StopTimer(uint64)          {}

// certCluster is the white-box fixture for certificate-mode tests: a
// full key directory (the test plays every signer, including the
// committee) and one honest node under observation.
type certCluster struct {
	n, t  int
	dir   *sig.Directory
	privs map[msg.NodeID][]byte
}

func newCertCluster(t *testing.T, n, tt int, seed uint64) *certCluster {
	t.Helper()
	scheme := sig.Ed25519{}
	dir := sig.NewDirectory(scheme)
	privs := make(map[msg.NodeID][]byte, n)
	keyRand := randutil.NewReader(seed)
	for i := 1; i <= n; i++ {
		priv, pub, err := scheme.GenerateKey(keyRand)
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Add(int64(i), pub); err != nil {
			t.Fatal(err)
		}
		privs[msg.NodeID(i)] = priv
	}
	return &certCluster{n: n, t: tt, dir: dir, privs: privs}
}

func (c *certCluster) node(t *testing.T, self msg.NodeID, rt Runtime) *Node {
	t.Helper()
	nd, err := NewNode(Params{
		Group: group.Test256(), N: c.n, T: c.t,
		Directory: c.dir, SignKey: c.privs[self],
		Certificates: true,
	}, 1, self, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// proposal fabricates a slim proposal over the first QSize dealers
// with distinguishable commitment hashes (handleCert only runs
// WellFormedBase on the carried proposal; the certificate itself is
// what authorises the quorum transition).
func (c *certCluster) proposal(tag byte) *Proposal {
	q := make([]msg.NodeID, c.t+1)
	hashes := make([][32]byte, c.t+1)
	for i := range q {
		q[i] = msg.NodeID(i + 1)
		hashes[i] = [32]byte{tag, byte(i)}
	}
	return &Proposal{Q: q, CHashes: hashes, Kind: KindVSS}
}

// echoCert assembles a genuine echo (or ready) certificate for the
// proposal: quorum-many committee signers sign the transcript and the
// test plays the relay, admitting each signature via PrepareCertSig.
func (c *certCluster) cert(t *testing.T, nd *Node, prop *Proposal, phase uint8) *sig.Certificate {
	t.Helper()
	digest := prop.Digest(1)
	comm := nd.certCommittee(digest)
	transcript := EchoTranscript(1, digest)
	quorum := comm.EchoQuorum()
	if phase == vss.CertReady {
		transcript = ReadyTranscript(1, digest)
		quorum = comm.ReadyQuorum()
	}
	coll := make(map[int64][]byte, quorum)
	for _, signer := range comm.Signers[:quorum] {
		raw, err := c.dir.Scheme().Sign(c.privs[msg.NodeID(signer)], transcript)
		if err != nil {
			t.Fatal(err)
		}
		prepared := sig.PrepareCertSig(c.dir, signer, transcript, raw)
		if prepared == nil {
			t.Fatalf("genuine signature rejected for signer %d", signer)
		}
		coll[signer] = prepared
	}
	return assembleCert(coll)
}

// TestCertEquivocatingRelay drives the equivocation scenario: a relay
// serves a valid echo certificate for proposal A, then a second valid
// echo certificate for a conflicting proposal B. The lock rule must
// hold exactly as in flood mode — the node locks A and refuses to
// ready B — and a genuine ready certificate for A still decides.
func TestCertEquivocatingRelay(t *testing.T) {
	c := newCertCluster(t, 13, 2, 7)
	nd := c.node(t, 5, certNullRT{})

	propA, propB := c.proposal(0xaa), c.proposal(0xbb)
	if propA.Digest(1) == propB.Digest(1) {
		t.Fatal("proposals must differ")
	}

	nd.Handle(2, &CertMsg{Tau: 1, Phase: vss.CertEcho, Prop: propA, Cert: c.cert(t, nd, propA, vss.CertEcho)})
	if nd.lock == nil || nd.lock.digest != propA.Digest(1) {
		t.Fatal("valid echo certificate did not lock proposal A")
	}
	if nd.lock.kind != KindEcho {
		t.Fatalf("lock kind = %v, want KindEcho", nd.lock.kind)
	}

	// The equivocating relay now serves a certificate for B.
	nd.Handle(2, &CertMsg{Tau: 1, Phase: vss.CertEcho, Prop: propB, Cert: c.cert(t, nd, propB, vss.CertEcho)})
	if nd.lock.digest != propA.Digest(1) {
		t.Fatal("conflicting echo certificate moved the lock")
	}
	if nd.decided != nil {
		t.Fatal("no decision should have happened yet")
	}

	// A ready certificate for the conflicting proposal must not
	// decide it either... but cryptographically valid ready quorums
	// for B mean the committee itself equivocated; the node still
	// decides only via the quorum it can justify. The lock protects
	// ready *sending*; decide follows the certificate. Here we check
	// the honest path: ready certificate for A decides A.
	nd.Handle(3, &CertMsg{Tau: 1, Phase: vss.CertReady, Prop: propA, Cert: c.cert(t, nd, propA, vss.CertReady)})
	if nd.decided == nil || nd.decided.Digest(1) != propA.Digest(1) {
		t.Fatal("genuine ready certificate did not decide proposal A")
	}
}

// TestCertForgeryRejected covers the adversarial certificate shapes a
// Byzantine relay can emit: truncated quorum, non-committee signers,
// duplicate signers, and a certificate whose signatures are for the
// wrong transcript. None may move the node's state.
func TestCertForgeryRejected(t *testing.T) {
	c := newCertCluster(t, 13, 2, 11)
	nd := c.node(t, 4, certNullRT{})
	prop := c.proposal(0x01)
	digest := prop.Digest(1)
	good := c.cert(t, nd, prop, vss.CertEcho)

	// Truncated below quorum.
	short := &sig.Certificate{Signers: good.Signers[:1], Sigs: good.Sigs[:1]}
	nd.Handle(2, &CertMsg{Tau: 1, Phase: vss.CertEcho, Prop: prop, Cert: short})
	if nd.lock != nil {
		t.Fatal("sub-quorum certificate accepted")
	}

	// Duplicate signers to inflate the count: rejected as malformed.
	dup := &sig.Certificate{
		Signers: make([]int64, len(good.Signers)),
		Sigs:    make([][]byte, len(good.Sigs)),
	}
	copy(dup.Signers, good.Signers)
	copy(dup.Sigs, good.Sigs)
	dup.Signers[len(dup.Signers)-1] = dup.Signers[0]
	dup.Sigs[len(dup.Sigs)-1] = dup.Sigs[0]
	nd.Handle(2, &CertMsg{Tau: 1, Phase: vss.CertEcho, Prop: prop, Cert: dup})
	if nd.lock != nil {
		t.Fatal("duplicate-signer certificate accepted")
	}

	// Signatures over the wrong transcript (ready sigs presented as
	// an echo certificate): batch verification must reject.
	wrong := c.cert(t, nd, prop, vss.CertReady)
	pad := c.cert(t, nd, prop, vss.CertEcho)
	forged := &sig.Certificate{Signers: pad.Signers, Sigs: make([][]byte, len(pad.Sigs))}
	copy(forged.Sigs, pad.Sigs)
	forged.Sigs[0] = wrong.Sigs[0]
	nd.Handle(2, &CertMsg{Tau: 1, Phase: vss.CertEcho, Prop: prop, Cert: forged})
	if nd.lock != nil {
		t.Fatal("wrong-transcript certificate accepted")
	}

	// Non-committee signer grafted in (membership check).
	comm := nd.certCommittee(digest)
	outsider := int64(0)
	for i := 1; i <= c.n; i++ {
		if !comm.IsSigner(int64(i)) {
			outsider = int64(i)
			break
		}
	}
	if outsider != 0 {
		graft := &sig.Certificate{Signers: make([]int64, len(good.Signers)), Sigs: make([][]byte, len(good.Sigs))}
		copy(graft.Signers, good.Signers)
		copy(graft.Sigs, good.Sigs)
		graft.Signers[0] = outsider
		nd.Handle(2, &CertMsg{Tau: 1, Phase: vss.CertEcho, Prop: prop, Cert: graft})
		if nd.lock != nil {
			t.Fatal("non-committee signer certificate accepted")
		}
	}

	// Control: the genuine certificate still works after the attacks.
	nd.Handle(2, &CertMsg{Tau: 1, Phase: vss.CertEcho, Prop: prop, Cert: good})
	if nd.lock == nil || nd.lock.digest != digest {
		t.Fatal("genuine certificate rejected after adversarial attempts")
	}
}

// TestCertProofInterop checks that converted certificate signatures
// serve as classic proposal proofs: a KindEcho proposal whose QSigs
// are the committee signatures from an echo certificate must pass
// verifyProposalProof on a fresh node, even though the count is far
// below the flood echo threshold.
func TestCertProofInterop(t *testing.T) {
	// n must be large enough for the signer committee to be a strict
	// subsample (at small n the committee is the whole population and
	// its quorum exceeds the flood threshold).
	c := newCertCluster(t, 64, 3, 23)
	nd := c.node(t, 6, certNullRT{})
	prop := c.proposal(0x05)
	digest := prop.Digest(1)

	cert := c.cert(t, nd, prop, vss.CertEcho)
	sigs := nd.certQSigs(EchoTranscript(1, digest), cert)
	if sigs == nil {
		t.Fatal("certificate conversion failed")
	}
	mProp := &Proposal{Q: prop.Q, CHashes: prop.CHashes, Kind: KindEcho, QSigs: sigs}
	if len(sigs) >= nd.params.EchoThreshold() {
		t.Fatalf("test degenerate: committee quorum %d is not below flood threshold %d",
			len(sigs), nd.params.EchoThreshold())
	}
	if !nd.verifyProposalProof(mProp, false) {
		t.Fatal("committee-quorum echo proof rejected")
	}

	// The same proof must fail when certificates are off (a flood-mode
	// verifier cannot be talked into sub-threshold proofs).
	floodNode, err := NewNode(Params{
		Group: group.Test256(), N: c.n, T: c.t,
		Directory: c.dir, SignKey: c.privs[6],
	}, 1, 6, certNullRT{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if floodNode.verifyProposalProof(mProp, false) {
		t.Fatal("flood-mode verifier accepted sub-threshold committee proof")
	}
}
