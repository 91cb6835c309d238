// Package thresh builds the threshold-cryptography applications that
// motivate the paper (§1): dealerless threshold Schnorr signatures,
// threshold ElGamal decryption with Chaum–Pedersen-verified partial
// decryptions, and a threshold-coin random beacon — all operating on
// shares and Feldman vector commitments produced by the DKG.
//
// Threshold Schnorr needs a fresh nonce per signature. The served path
// signs with FROST (frost.go): each signer brings its own nonce pair, so
// no joint nonce — and no DKG — is run per signature. The Stinson–Strobl
// construction below, where the nonce is itself a DKG output, remains
// for the experiments that measure it: given key shares s_i committed by
// V and nonce shares k_i committed by Vk with R = Vk's public key, node
// i's partial signature on m is σ_i = k_i + c·s_i for c = H(R ‖ pk ‖ m);
// σ_i is a degree-t share of σ = k + c·s, so any t+1 verified partials
// interpolate to a standard Schnorr signature (R, σ). Either way the
// result is an ordinary Schnorr signature that Verify checks.
package thresh

import (
	"errors"
	"fmt"
	"math/big"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
)

// Errors returned by threshold operations.
var (
	ErrBadPartial   = errors.New("thresh: invalid partial")
	ErrNotEnough    = errors.New("thresh: not enough valid partials")
	ErrBadCipher    = errors.New("thresh: malformed ciphertext")
	ErrBadArguments = errors.New("thresh: invalid arguments")
)

// PartialsError reports a failed combination together with the
// identity of every submitted partial that failed verification. A
// data plane uses the Bad list to evict the offending senders and
// re-request partials from other share holders; errors.Is against
// ErrNotEnough keeps working via Unwrap.
type PartialsError struct {
	// Bad lists the signers (or decryptors) whose partials failed
	// verification, in submission order, deduplicated.
	Bad []msg.NodeID
	// Valid counts the distinct valid partials seen.
	Valid int
	// Needed is the reconstruction threshold t+1.
	Needed int
}

// Error implements error.
func (e *PartialsError) Error() string {
	if len(e.Bad) == 0 {
		return fmt.Sprintf("%v: %d of %d needed", ErrNotEnough, e.Valid, e.Needed)
	}
	return fmt.Sprintf("%v: %d of %d needed (invalid partials from %v)",
		ErrNotEnough, e.Valid, e.Needed, e.Bad)
}

// Unwrap makes errors.Is(err, ErrNotEnough) hold.
func (e *PartialsError) Unwrap() error { return ErrNotEnough }

// KeyShare is one node's slice of a shared key: the scalar share plus
// the group-wide vector commitment it verifies against.
type KeyShare struct {
	Self  msg.NodeID
	Share *big.Int
	V     *commit.Vector
}

// Validate checks internal consistency.
func (k KeyShare) Validate() error {
	if k.Share == nil || k.V == nil {
		return fmt.Errorf("%w: nil key share fields", ErrBadArguments)
	}
	if !k.V.VerifyShare(int64(k.Self), k.Share) {
		return fmt.Errorf("%w: share does not match commitment", ErrBadArguments)
	}
	return nil
}

// PartialSig is one node's signature share.
type PartialSig struct {
	Signer msg.NodeID
	Sigma  *big.Int
}

// Signature is a standard Schnorr signature (R, σ) verifiable against
// the shared public key with plain single-party verification.
type Signature struct {
	R     group.Element
	Sigma *big.Int
}

// challenge computes c = H(R ‖ pk ‖ m).
func challenge(gr *group.Group, bigR, pk group.Element, message []byte) *big.Int {
	return gr.HashToScalar("hybriddkg/thresh-schnorr/v1", bigR.Bytes(), pk.Bytes(), message)
}

// Challenge exposes the signing challenge c = H(R ‖ pk ‖ m) for callers
// that compute it once and reuse it across PartialSignPre calls and
// batched verification.
func Challenge(gr *group.Group, bigR, pk group.Element, message []byte) *big.Int {
	return challenge(gr, bigR, pk, message)
}

// PartialSignPre computes σ_i = k_i + c·s_i for a precomputed
// challenge, skipping the per-call share re-validation that
// PartialSign performs: shares validated once when a key is installed
// cost two scalar operations per signature. A FROST answer is the same
// arithmetic with k_i = d_i + e_i·ρ_i and c scaled by λ_i.
func PartialSignPre(gr *group.Group, self msg.NodeID, keyShare, nonceShare, c *big.Int) PartialSig {
	return PartialSig{Signer: self, Sigma: gr.AddQ(nonceShare, gr.MulQ(c, keyShare))}
}

// PartialSign produces node i's signature share using its long-term
// key share and a fresh nonce share (Stinson–Strobl: from a nonce DKG).
func PartialSign(gr *group.Group, key, nonce KeyShare, message []byte) (PartialSig, error) {
	if key.Self != nonce.Self {
		return PartialSig{}, fmt.Errorf("%w: key/nonce signer mismatch", ErrBadArguments)
	}
	if err := key.Validate(); err != nil {
		return PartialSig{}, err
	}
	if err := nonce.Validate(); err != nil {
		return PartialSig{}, err
	}
	c := challenge(gr, nonce.V.PublicKey(), key.V.PublicKey(), message)
	sigma := gr.AddQ(nonce.Share, gr.MulQ(c, key.Share))
	return PartialSig{Signer: key.Self, Sigma: sigma}, nil
}

// VerifyPartial checks σ_i against the two commitments, as the single
// multi-exp identity check g^{−σ_i} · Vk(i) · V(i)^c = 1 (the
// commitment evaluations Vk(i), V(i) stay on the Horner fast path,
// whose geometric exponent structure a generic multi-exp cannot
// exploit).
func VerifyPartial(gr *group.Group, keyV, nonceV *commit.Vector, message []byte, p PartialSig) bool {
	if p.Sigma == nil || !gr.IsScalar(p.Sigma) {
		return false
	}
	c := challenge(gr, nonceV.PublicKey(), keyV.PublicKey(), message)
	acc := gr.VarTimeMultiExp(
		[]group.Element{gr.Generator(), nonceV.Eval(int64(p.Signer)), keyV.Eval(int64(p.Signer))},
		[]*big.Int{gr.NegQ(p.Sigma), big.NewInt(1), c},
	)
	return acc.Equal(gr.Identity())
}

// BatchVerifyPartials verifies many partial signatures on one message
// together, returning one verdict per input (identical to per-item
// VerifyPartial verdicts). The partials σ_i are evaluations of the
// degree-t polynomial k(x) + c·s(x), whose coefficient commitments
// are W_ℓ = Vk_ℓ·V_ℓ^c — so, as in batched share verification, the
// batch interpolates a candidate polynomial P from t+1 claimed
// partials, classifies the rest by scalar evaluation, and checks P
// against the commitments with one randomized linear combination:
//
//	g^{Σ r_ℓ P_ℓ} = Π_ℓ Vk_ℓ^{r_ℓ} · Π_ℓ V_ℓ^{c·r_ℓ}
//
// one multi-exp whose cost does not grow with the number of partials.
// A failed combination (forgery probability ≤ 2^−BatchSoundnessBits)
// falls back to per-item verification, so invalid signers are still
// individually identified.
func BatchVerifyPartials(gr *group.Group, keyV, nonceV *commit.Vector, message []byte, partials []PartialSig) []bool {
	valid := make([]bool, len(partials))
	t := keyV.T()
	if nonceV.T() != t {
		return valid // dimension mismatch: nothing can verify
	}
	fallback := func() []bool {
		for i, p := range partials {
			valid[i] = VerifyPartial(gr, keyV, nonceV, message, p)
		}
		return valid
	}
	first := make(map[msg.NodeID]*big.Int, len(partials))
	var pts []poly.Point
	for _, p := range partials {
		if p.Sigma == nil || !gr.IsScalar(p.Sigma) || p.Signer <= 0 {
			continue
		}
		if _, dup := first[p.Signer]; dup {
			continue
		}
		first[p.Signer] = p.Sigma
		if len(pts) <= t {
			pts = append(pts, poly.Point{X: int64(p.Signer), Y: p.Sigma})
		}
	}
	if len(pts) <= t {
		return fallback()
	}
	p, err := poly.InterpolatePoly(gr.Q(), pts)
	if err != nil {
		return fallback()
	}
	blind, err := commit.RandBlinders(t + 1)
	if err != nil {
		return fallback()
	}
	c := challenge(gr, nonceV.PublicKey(), keyV.PublicKey(), message)
	// The challenge factors out of the key-commitment terms:
	//
	//	g^{−Σ r_ℓ P_ℓ} · Π Vk_ℓ^{r_ℓ} · (Π V_ℓ^{r_ℓ})^c = 1
	//
	// so the whole batch pays a single full-width exponentiation (of
	// the collapsed key term) while every blinded exponent stays at
	// BatchSoundnessBits — t+1 short terms per commitment vector
	// instead of t+1 full-width ones.
	bases := make([]group.Element, 0, t+2)
	exps := make([]*big.Int, 0, t+2)
	gExp := new(big.Int)
	keyBases := make([]group.Element, 0, t+1)
	for l := 0; l <= t; l++ {
		gExp.Add(gExp, new(big.Int).Mul(blind[l], p.Coeff(l)))
		bases = append(bases, nonceV.Entry(l))
		exps = append(exps, blind[l])
		keyBases = append(keyBases, keyV.Entry(l))
	}
	bases = append(bases, gr.Generator())
	exps = append(exps, gr.NegQ(gExp))
	nonceSide := gr.VarTimeMultiExp(bases, exps)
	keySide := gr.VarTimeMultiExp(keyBases, blind)
	if !gr.Mul(nonceSide, gr.Exp(keySide, c)).Equal(gr.Identity()) {
		return fallback()
	}
	// P is the committed partial-signature polynomial; classify every
	// input by scalar evaluation — including out-of-protocol signer
	// indices (≤ 0), for which the evaluation is still exactly
	// VerifyPartial's predicate, so batch and per-item verdicts agree
	// on every input.
	evalMemo := make(map[msg.NodeID]*big.Int, len(first))
	for i, pr := range partials {
		if pr.Sigma == nil || !gr.IsScalar(pr.Sigma) {
			continue
		}
		v, ok := evalMemo[pr.Signer]
		if !ok {
			v = p.EvalInt(int64(pr.Signer))
			evalMemo[pr.Signer] = v
		}
		valid[i] = v.Cmp(pr.Sigma) == 0
	}
	return valid
}

// Combine verifies the partials (batched: one multi-exp for the whole
// set, with per-item fallback on batch failure) and interpolates the
// first t+1 valid ones into a full signature.
func Combine(gr *group.Group, keyV, nonceV *commit.Vector, t int, message []byte, partials []PartialSig) (Signature, error) {
	valid := BatchVerifyPartials(gr, keyV, nonceV, message, partials)
	pts := make([]poly.Point, 0, t+1)
	seen := make(map[msg.NodeID]bool, len(partials))
	var bad []msg.NodeID
	badSeen := make(map[msg.NodeID]bool)
	for i, p := range partials {
		if !valid[i] {
			if !badSeen[p.Signer] {
				badSeen[p.Signer] = true
				bad = append(bad, p.Signer)
			}
			continue
		}
		if seen[p.Signer] {
			continue
		}
		seen[p.Signer] = true
		if len(pts) <= t {
			pts = append(pts, poly.Point{X: int64(p.Signer), Y: p.Sigma})
		}
	}
	if len(pts) < t+1 {
		return Signature{}, &PartialsError{Bad: bad, Valid: len(pts), Needed: t + 1}
	}
	sigma, err := poly.Interpolate(gr.Q(), pts, 0)
	if err != nil {
		return Signature{}, err
	}
	sig := Signature{R: nonceV.PublicKey(), Sigma: sigma}
	if !Verify(gr, keyV.PublicKey(), message, sig) {
		return Signature{}, fmt.Errorf("%w: combined signature invalid", ErrBadPartial)
	}
	return sig, nil
}

// BatchVerifySignaturesPre verifies many combined signatures under one
// public key with a single randomized linear combination:
//
//	Π R_j^{r_j} · pk^{Σ r_j c_j} · g^{−Σ r_j σ_j} = 1
//
// — one multi-exp where the R-side exponents all stay at
// BatchSoundnessBits and the two collapsed full-width terms (pk and
// the generator) ride the backend's precomputed tables, against 2·B
// full-width exponentiations for B per-item Verify calls. A false
// return means at least one signature is invalid (forgery probability
// ≤ 2^−BatchSoundnessBits); callers identify it by per-item Verify.
//
// cs, when non-nil, holds precomputed challenges: cs[j], when non-nil,
// must equal H(R_j ‖ pk ‖ m_j). An aggregator computes every challenge
// once to make its own answer and can hand the values here instead of
// paying the hash (and the point serializations feeding it) a second
// time. A nil entry is recomputed; a wrong precomputed challenge makes
// verification fail, never falsely pass, since the signature was
// produced against the honestly computed value.
func BatchVerifySignaturesPre(gr *group.Group, pk group.Element, messages [][]byte, cs []*big.Int, sigs []Signature) bool {
	if len(messages) != len(sigs) || (cs != nil && len(cs) != len(sigs)) {
		return false
	}
	if len(sigs) == 0 {
		return true
	}
	chal := func(j int) *big.Int {
		if cs != nil && cs[j] != nil {
			return cs[j]
		}
		return challenge(gr, sigs[j].R, pk, messages[j])
	}
	if len(sigs) == 1 {
		// One signature needs no blinding: R · pk^c · g^{−σ} = 1 is a
		// single multi-exp over public values, where R is a bare
		// addition and a Precompute'd pk rides its comb tables.
		sg := sigs[0]
		if sg.R == nil || sg.Sigma == nil || !gr.IsElement(sg.R) || !gr.IsScalar(sg.Sigma) {
			return false
		}
		return gr.VarTimeMultiExp(
			[]group.Element{sg.R, pk, gr.Generator()},
			[]*big.Int{big.NewInt(1), chal(0), gr.NegQ(sg.Sigma)},
		).Equal(gr.Identity())
	}
	blind, err := commit.RandBlinders(len(sigs))
	if err != nil {
		return false
	}
	sAcc := new(big.Int)
	cAcc := new(big.Int)
	bases := make([]group.Element, 0, len(sigs)+2)
	exps := make([]*big.Int, 0, len(sigs)+2)
	for j, sg := range sigs {
		if sg.R == nil || sg.Sigma == nil || !gr.IsElement(sg.R) || !gr.IsScalar(sg.Sigma) {
			return false
		}
		sAcc.Add(sAcc, new(big.Int).Mul(blind[j], sg.Sigma))
		cAcc.Add(cAcc, new(big.Int).Mul(blind[j], chal(j)))
		bases = append(bases, sg.R)
		exps = append(exps, blind[j])
	}
	// One identity check: Π R_j^{r_j} · pk^{Σ r_j c_j} · g^{−Σ r_j σ_j}
	// = 1. Folding the pk and generator terms into the same multi-exp
	// lets a Precompute'd pk ride the shared doubling chain instead of
	// paying a standalone full-width exponentiation per batch.
	bases = append(bases, pk, gr.Generator())
	exps = append(exps, gr.ModQ(cAcc), gr.NegQ(sAcc))
	return gr.VarTimeMultiExp(bases, exps).Equal(gr.Identity())
}

// Verify checks a combined signature exactly like a single-party
// Schnorr verifier: g^σ = R · pk^c with c = H(R ‖ pk ‖ m). It is the
// one-signature batch.
func Verify(gr *group.Group, pk group.Element, message []byte, sig Signature) bool {
	return BatchVerifySignaturesPre(gr, pk, [][]byte{message}, nil, []Signature{sig})
}
