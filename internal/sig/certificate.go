// Quorum certificates and committee sampling. A certificate is a
// relay-assembled proof that a quorum of a deterministically sampled
// signer committee signed one transcript (an echo or ready message for
// a fixed commitment hash): the sorted signer list plus one signature
// per signer. Receivers verify the whole artifact at once — for the
// Schnorr schemes in a single randomized-linear-combination
// multi-exponentiation (the factored-challenge idea of the threshold
// layer's partial-signature batches), with a per-signer fallback that
// names the forgers when the batch check fails.
//
// Committee sampling follows the Any-Trust construction: the signer
// and relay sets are derived from a seed every node can compute
// (domain ‖ protocol context ‖ commitment hash), so the committees are
// replayable without extra rounds, and the commitment hash binds the
// sample to the dealt material, leaving a dealer no post-hoc freedom
// to re-roll an already-published dealing.
//
// Certificate signatures use an (R, z) encoding rather than the
// scheme's (c, z): the challenge c = H(R ‖ y ‖ m) is recomputable from
// R by hashing alone, which is what makes the one-multi-exp batch
// check possible, and converting back to the scheme encoding for
// interop (ready-proof sets) costs one hash and no exponentiations.
package sig

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"hybriddkg/internal/group"
)

// Certificate errors.
var (
	ErrCertMalformed = errors.New("sig: malformed certificate")
	ErrCertSigners   = errors.New("sig: bad certificate signers")
	ErrCertForged    = errors.New("sig: certificate carries invalid signatures")
)

// Certificate is a quorum certificate: the sorted distinct signer
// indices and, aligned with them, one certificate-form signature per
// signer, all over the same transcript.
type Certificate struct {
	Signers []int64
	Sigs    [][]byte
}

// WellFormed performs the structural validation every receiver runs
// before any cryptography: aligned lists, signers sorted strictly
// ascending (no duplicates) and within [1, n].
func (c *Certificate) WellFormed(n int) error {
	if c == nil || len(c.Signers) == 0 || len(c.Signers) != len(c.Sigs) {
		return ErrCertMalformed
	}
	prev := int64(0)
	for _, s := range c.Signers {
		if s <= prev || s > int64(n) {
			return fmt.Errorf("%w: signer %d", ErrCertSigners, s)
		}
		prev = s
	}
	return nil
}

// CertificateError reports the outcome of a failed certificate
// verification: Bad names the signer indices whose signatures did not
// verify (the forgers), found by the per-signer fallback after the
// batch check rejected.
type CertificateError struct {
	Bad []int64
}

// Error implements error.
func (e *CertificateError) Error() string {
	return fmt.Sprintf("sig: certificate signatures invalid for signers %v", e.Bad)
}

// PrepareCertSig is the relay-side admission check: verify one node's
// scheme-encoded signature over transcript and return its
// certificate-form encoding. For Schnorr schemes the nonce commitment
// R = g^z·y^c is recovered as a byproduct of verification and the
// result is the (R, z) pair; other schemes keep their native encoding.
// Returns nil if the signature does not verify.
func PrepareCertSig(d *Directory, node int64, transcript, sigBytes []byte) []byte {
	pub, err := d.PublicKey(node)
	if err != nil {
		return nil
	}
	sch, ok := d.Scheme().(Schnorr)
	if !ok {
		if !d.Verify(node, transcript, sigBytes) {
			return nil
		}
		cp := make([]byte, len(sigBytes))
		copy(cp, sigBytes)
		return cp
	}
	gr := sch.gr
	y, err := gr.DecodeElement(pub)
	if err != nil {
		return nil
	}
	c, z, ok := decodePair(sigBytes)
	if !ok || !gr.IsScalar(c) || !gr.IsScalar(z) {
		return nil
	}
	bigR := gr.VarTimeMultiExp([]group.Element{gr.Generator(), y}, []*big.Int{z, c})
	if gr.HashToScalar("hybriddkg/schnorr-chal/v1", bigR.Bytes(), y.Bytes(), transcript).Cmp(c) != 0 {
		return nil
	}
	return encodeBlobPair(bigR.Bytes(), z.Bytes())
}

// CertSigToScheme converts one certificate-form signature back to the
// scheme's native encoding (for Schnorr, recompute c = H(R ‖ y ‖ m)
// from the carried R — one hash, no exponentiations). The result
// verifies under Scheme.Verify exactly when the certificate-form
// signature was valid. Returns nil on malformed input.
func CertSigToScheme(d *Directory, node int64, transcript, certSig []byte) []byte {
	sch, ok := d.Scheme().(Schnorr)
	if !ok {
		cp := make([]byte, len(certSig))
		copy(cp, certSig)
		return cp
	}
	pub, err := d.PublicKey(node)
	if err != nil {
		return nil
	}
	rb, zb, ok := decodeBlobPair(certSig)
	if !ok {
		return nil
	}
	gr := sch.gr
	y, err := gr.DecodeElement(pub)
	if err != nil {
		return nil
	}
	c := gr.HashToScalar("hybriddkg/schnorr-chal/v1", rb, y.Bytes(), transcript)
	return encodePair(c, new(big.Int).SetBytes(zb))
}

// VerifyCertificate checks every signature in cert over transcript.
// For Schnorr schemes all m signatures collapse into one blinded
// multi-exponentiation:
//
//	g^(Σ rⱼ·zⱼ) · Π yⱼ^(rⱼ·cⱼ) · Π Rⱼ^(−rⱼ) = 1,  cⱼ = H(Rⱼ ‖ yⱼ ‖ m)
//
// with fresh 64-bit blinders rⱼ, so a forged signature slips through
// with probability ≤ 2⁻⁶⁴. When the batch identity fails (or the
// scheme has no batch form), the per-signer fallback isolates and
// names the forgers via *CertificateError. Structural defects (bad
// signer list, undecodable material) return ErrCertMalformed-family
// errors before any batching.
func VerifyCertificate(d *Directory, n int, transcript []byte, cert *Certificate) error {
	if err := cert.WellFormed(n); err != nil {
		return err
	}
	sch, isSchnorr := d.Scheme().(Schnorr)
	if !isSchnorr {
		var bad []int64
		for i, signer := range cert.Signers {
			if !d.Verify(signer, transcript, cert.Sigs[i]) {
				bad = append(bad, signer)
			}
		}
		if bad != nil {
			return &CertificateError{Bad: bad}
		}
		return nil
	}

	gr := sch.gr
	m := len(cert.Signers)
	ys := make([]group.Element, m)
	rs := make([]group.Element, m)
	zs := make([]*big.Int, m)
	cs := make([]*big.Int, m)
	for i, signer := range cert.Signers {
		pub, err := d.PublicKey(signer)
		if err != nil {
			return fmt.Errorf("%w: no key for signer %d", ErrCertSigners, signer)
		}
		y, err := gr.DecodeElement(pub)
		if err != nil {
			return fmt.Errorf("%w: signer %d key", ErrCertMalformed, signer)
		}
		rb, zb, ok := decodeBlobPair(cert.Sigs[i])
		if !ok {
			return &CertificateError{Bad: []int64{signer}}
		}
		bigR, err := gr.DecodeElement(rb)
		if err != nil {
			return &CertificateError{Bad: []int64{signer}}
		}
		z := new(big.Int).SetBytes(zb)
		if !gr.IsScalar(z) {
			return &CertificateError{Bad: []int64{signer}}
		}
		ys[i], rs[i], zs[i] = y, bigR, z
		cs[i] = gr.HashToScalar("hybriddkg/schnorr-chal/v1", rb, y.Bytes(), transcript)
	}
	blind, err := randBlinders(m)
	if err != nil {
		return fmt.Errorf("sig: sampling blinders: %w", err)
	}
	bases := make([]group.Element, 0, 2*m+1)
	exps := make([]*big.Int, 0, 2*m+1)
	zSum := new(big.Int)
	for i := 0; i < m; i++ {
		zSum = gr.AddQ(zSum, gr.MulQ(blind[i], zs[i]))
		bases = append(bases, ys[i])
		exps = append(exps, gr.MulQ(blind[i], cs[i]))
		bases = append(bases, rs[i])
		exps = append(exps, gr.NegQ(blind[i]))
	}
	bases = append(bases, gr.Generator())
	exps = append(exps, zSum)
	if gr.VarTimeMultiExp(bases, exps).Equal(gr.Identity()) {
		return nil
	}
	// Batch rejected: isolate the forgers one signature at a time so
	// the caller can attribute blame (and accept nothing).
	var bad []int64
	for i, signer := range cert.Signers {
		rPrime := gr.VarTimeMultiExp([]group.Element{gr.Generator(), ys[i]}, []*big.Int{zs[i], cs[i]})
		if !rPrime.Equal(rs[i]) {
			bad = append(bad, signer)
		}
	}
	if bad == nil {
		// The batch identity failed but every signature verifies
		// individually — only possible on a blinder collision; accept.
		return nil
	}
	return &CertificateError{Bad: bad}
}

// VerifyCertificateCached is VerifyCertificate behind the directory's
// verification memo (EnableVerifyCache): certificate verdicts share
// the signature cache under a sentinel signer index, so a certificate
// pre-verified by the speculative pipeline costs one map hit when the
// state machine checks it inline. A memoized rejection re-runs the
// full verification to reproduce the detailed error (forger naming is
// the rare path and must stay exact). Without a cache this is exactly
// VerifyCertificate.
func VerifyCertificateCached(d *Directory, n int, transcript []byte, cert *Certificate) error {
	return verifyCertificateMemo(d, n, transcript, cert, false)
}

// SpeculateCertificate is Directory.Speculate for a whole certificate.
func SpeculateCertificate(d *Directory, n int, transcript []byte, cert *Certificate) {
	if d != nil && d.cache != nil {
		verifyCertificateMemo(d, n, transcript, cert, true)
	}
}

func verifyCertificateMemo(d *Directory, n int, transcript []byte, cert *Certificate, speculative bool) error {
	if d == nil || d.cache == nil || cert == nil {
		return VerifyCertificate(d, n, transcript, cert)
	}
	var err error
	ran := false
	valid := d.memoized(certVerifyKey(n, transcript, cert), speculative, func() bool {
		ran = true
		err = VerifyCertificate(d, n, transcript, cert)
		return err == nil
	})
	if valid || ran {
		return err
	}
	return VerifyCertificate(d, n, transcript, cert)
}

// certVerifyKey folds the whole certificate (and the signer-range
// bound n, which affects WellFormed) into one memo key under the
// sentinel signer index −1, keeping certificate verdicts disjoint
// from per-signature entries.
func certVerifyKey(n int, transcript []byte, cert *Certificate) verifyKey {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	for i, s := range cert.Signers {
		binary.BigEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(len(cert.Sigs[i])))
		h.Write(buf[:])
		h.Write(cert.Sigs[i])
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return verifyKey{node: -1, msg: sha256.Sum256(transcript), sig: sum}
}

// --- committee sampling ----------------------------------------------

// Committee is a deterministically sampled signer set and relay set
// for one certificate context, plus the committee-scaled fault bound
// tS that the quorum rules below are stated over. The signer size s
// satisfies s ≥ 3t+1 whenever n allows it, so the number of corrupt
// committee members is at most t ≤ tS = ⌊(s−1)/3⌋ unconditionally —
// committee quorum intersection then gives the same agreement
// guarantees as the full-set thresholds, while per-dealing signing
// work drops from n to s = O(t + log n).
type Committee struct {
	Signers []int64 // sorted ascending, distinct, within [1, n]
	Relays  []int64 // sorted ascending, distinct, within [1, n]
	TS      int     // committee fault bound ⌊(s−1)/3⌋
}

// EchoQuorum is ⌈(s+tS+1)/2⌉ — any two echo quorums intersect in at
// least tS+1 signers, hence in an honest one.
func (c Committee) EchoQuorum() int { return (len(c.Signers) + c.TS + 2) / 2 }

// ReadyQuorum is s − tS, the committee analogue of n−t−f completion.
func (c Committee) ReadyQuorum() int { return len(c.Signers) - c.TS }

// IsSigner reports membership in the signer committee.
func (c Committee) IsSigner(id int64) bool { return containsSorted(c.Signers, id) }

// IsRelay reports membership in the relay committee.
func (c Committee) IsRelay(id int64) bool { return containsSorted(c.Relays, id) }

func containsSorted(s []int64, id int64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// SignerCommitteeSize returns min(n, max(3t+1, 4⌈log₂n⌉+1)): large
// enough that the global fault bound t fits under the committee fault
// bound ⌊(s−1)/3⌋, and Ω(log n) so sampling stays meaningful as n
// grows with t fixed (the Any-Trust scaling regime).
func SignerCommitteeSize(n, t int) int {
	s := 3*t + 1
	if l := 4*ceilLog2(n) + 1; l > s {
		s = l
	}
	if s > n {
		s = n
	}
	return s
}

// RelayCommitteeSize returns min(n, max(3, ⌈log₂n⌉)). Relays affect
// only the fast path: one honest relay suffices to produce
// certificates, and the flood fallback restores liveness even when
// every relay is crashed or corrupt.
func RelayCommitteeSize(n int) int {
	r := ceilLog2(n)
	if r < 3 {
		r = 3
	}
	if r > n {
		r = n
	}
	return r
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// SampleCommittee deterministically samples the signer and relay
// committees for one certificate context from H(domain ‖ seed parts)
// in counter mode with rejection sampling, so every node derives the
// same sets with no extra communication. Callers bind the seed to the
// protocol context (session identity and commitment hash).
func SampleCommittee(domain string, n, t int, seed ...[]byte) Committee {
	return Committee{
		Signers: sampleDistinct(domain+"/signers", n, SignerCommitteeSize(n, t), seed),
		Relays:  sampleDistinct(domain+"/relays", n, RelayCommitteeSize(n), seed),
		TS:      (SignerCommitteeSize(n, t) - 1) / 3,
	}
}

// sampleDistinct draws k distinct indices from [1, n] using the group
// package's hash-expansion discipline: 64-bit draws with modulo-bias
// rejection, deduplicated until k survive.
func sampleDistinct(domain string, n, k int, seed [][]byte) []int64 {
	if k >= n {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	picked := make(map[int64]bool, k)
	out := make([]int64, 0, k)
	// Largest multiple of n below 2^64; draws at or above it would
	// bias the residue and are rejected.
	limit := ^uint64(0) - ^uint64(0)%uint64(n)
	for ctr := uint32(0); len(out) < k; ctr++ {
		block := expandSeed(domain, ctr, seed)
		for off := 0; off+8 <= len(block) && len(out) < k; off += 8 {
			v := binary.BigEndian.Uint64(block[off:])
			if v >= limit {
				continue
			}
			id := int64(v%uint64(n)) + 1
			if picked[id] {
				continue
			}
			picked[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func expandSeed(domain string, ctr uint32, seed [][]byte) []byte {
	h := make([]byte, 0, 64)
	w := make([]byte, 8)
	binary.BigEndian.PutUint32(w[:4], ctr)
	h = append(h, w[:4]...)
	h = append(h, domain...)
	for _, s := range seed {
		binary.BigEndian.PutUint32(w[4:], uint32(len(s)))
		h = append(h, w[4:]...)
		h = append(h, s...)
	}
	sum := sha256.Sum256(h)
	return sum[:]
}

// randBlinders samples fresh 64-bit blinders for the batch identity
// (same soundness discipline as the commitment layer's batch
// verifier, kept local to avoid a dependency inversion).
func randBlinders(n int) ([]*big.Int, error) {
	buf := make([]byte, 8*n)
	if _, err := rand.Read(buf); err != nil {
		return nil, err
	}
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).SetUint64(binary.BigEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// --- blob-pair encoding ----------------------------------------------

// encodeBlobPair writes two byte strings with 2-byte big-endian length
// prefixes. Unlike encodePair this is byte-exact (no big.Int
// round-trip), which matters for group-element encodings whose leading
// bytes are significant.
func encodeBlobPair(a, b []byte) []byte {
	out := make([]byte, 0, 4+len(a)+len(b))
	out = append(out, byte(len(a)>>8), byte(len(a)))
	out = append(out, a...)
	out = append(out, byte(len(b)>>8), byte(len(b)))
	out = append(out, b...)
	return out
}

func decodeBlobPair(data []byte) (a, b []byte, ok bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	la := int(data[0])<<8 | int(data[1])
	data = data[2:]
	if len(data) < la+2 {
		return nil, nil, false
	}
	a = data[:la]
	data = data[la:]
	lb := int(data[0])<<8 | int(data[1])
	data = data[2:]
	if len(data) != lb {
		return nil, nil, false
	}
	return a, data, true
}
