package thresh

import (
	"fmt"
	"io"
	"math/big"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
)

// Ciphertext is an ElGamal ciphertext (c1, c2) = (g^r, m·pk^r) over
// group elements.
type Ciphertext struct {
	C1, C2 group.Element
}

// Encrypt encrypts a group element under the shared public key.
// Callers encrypting arbitrary bytes should map them into the group
// first (e.g. hybrid encryption with a KEM around a random element).
func Encrypt(gr *group.Group, pk, m group.Element, rand io.Reader) (Ciphertext, error) {
	if !gr.IsElement(pk) || !gr.IsElement(m) {
		return Ciphertext{}, fmt.Errorf("%w: inputs not group elements", ErrBadArguments)
	}
	r, err := gr.RandNonZeroScalar(rand)
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{
		C1: gr.GExp(r),
		C2: gr.Mul(m, gr.Exp(pk, r)),
	}, nil
}

// DLEQProof is a Chaum–Pedersen proof that log_g(Y) = log_{C1}(D):
// the partial decryption D = C1^{s_i} was produced with the same
// scalar as the public share Y = g^{s_i}.
type DLEQProof struct {
	E, Z *big.Int
}

// PartialDecryption is one node's decryption share with its proof of
// correctness.
type PartialDecryption struct {
	Decryptor msg.NodeID
	D         group.Element
	Proof     DLEQProof
}

// dleqDomain separates DLEQ challenges from every other hash.
const dleqDomain = "hybriddkg/thresh-dleq/v1"

// PartialDecrypt produces node i's decryption share D = C1^{s_i}
// along with a DLEQ proof binding it to the share commitment.
func PartialDecrypt(gr *group.Group, key KeyShare, ct Ciphertext, rand io.Reader) (PartialDecryption, error) {
	if err := key.Validate(); err != nil {
		return PartialDecryption{}, err
	}
	return ProveDecryption(gr, key.Self, key.Share, key.V.Eval(int64(key.Self)), ct.C1, rand)
}

// ProveDecryption is the proving core: D = h^share with a DLEQ proof
// against the public share y = g^share. A decryption passes h = C1; the
// beacon passes its round base. The share is not re-checked against y;
// callers pass one they validated once (a data plane at key install,
// PartialDecrypt per call).
func ProveDecryption(gr *group.Group, self msg.NodeID, share *big.Int, y, h group.Element, rand io.Reader) (PartialDecryption, error) {
	if !gr.IsElement(h) {
		return PartialDecryption{}, ErrBadCipher
	}
	d := gr.Exp(h, share)
	w, err := gr.RandNonZeroScalar(rand)
	if err != nil {
		return PartialDecryption{}, err
	}
	a1 := gr.GExp(w)
	a2 := gr.Exp(h, w)
	e := gr.HashToScalar(dleqDomain, y.Bytes(), h.Bytes(), d.Bytes(), a1.Bytes(), a2.Bytes())
	z := gr.AddQ(w, gr.MulQ(e, share))
	return PartialDecryption{
		Decryptor: self,
		D:         d,
		Proof:     DLEQProof{E: e, Z: z},
	}, nil
}

// VerifyPartialDecryption checks pd's DLEQ proof against the public
// share V(pd.Decryptor).
func VerifyPartialDecryption(gr *group.Group, v *commit.Vector, ct Ciphertext, pd PartialDecryption) bool {
	return VerifyDecryption(gr, v.Eval(int64(pd.Decryptor)), ct.C1, pd)
}

// VerifyDecryption is the verifying core: with y the decryptor's public
// share and h the base (C1, or a beacon round's), a1 = g^z·y^{q−e} and
// a2 = h^z·D^{q−e} must hash back to e; the exponent q−e spares the
// inversions. Every input is public, so a1 and a2 are one
// VarTimeMultiExp each: g^z is one fixed-base multiplication, y^{q−e}
// rides y's comb tables when the caller has Precompute'd y (a data plane
// does once per key epoch), and h^z·D^{q−e} shares one doubling chain.
// The prover's exponentiations hold the share and the nonce and stay on
// the constant-time ladders (ProveDecryption).
func VerifyDecryption(gr *group.Group, y, h group.Element, pd PartialDecryption) bool {
	if pd.D == nil || pd.Proof.E == nil || pd.Proof.Z == nil {
		return false
	}
	if !gr.IsElement(pd.D) || !gr.IsScalar(pd.Proof.E) || !gr.IsScalar(pd.Proof.Z) {
		return false
	}
	exps := []*big.Int{pd.Proof.Z, gr.NegQ(pd.Proof.E)}
	a1 := gr.VarTimeMultiExp([]group.Element{gr.Generator(), y}, exps)
	a2 := gr.VarTimeMultiExp([]group.Element{h, pd.D}, exps)
	e := gr.HashToScalar(dleqDomain, y.Bytes(), h.Bytes(), pd.D.Bytes(), a1.Bytes(), a2.Bytes())
	return e.Cmp(pd.Proof.E) == 0
}

// CombineDecrypt verifies partial decryptions and combines t+1 of
// them in the exponent: C1^s = Π D_i^{λ_i}, then m = C2 / C1^s.
func CombineDecrypt(gr *group.Group, v *commit.Vector, t int, ct Ciphertext, parts []PartialDecryption) (group.Element, error) {
	pub := func(i msg.NodeID) group.Element { return v.Eval(int64(i)) }
	return CombineDecryptWith(gr, t, ct, parts, pub, poly.NewLagrangeCache(gr.Q(), 0))
}

// CombineDecryptWith combines as CombineShares does, over h = C1, and
// returns m = C2 / C1^s.
func CombineDecryptWith(gr *group.Group, t int, ct Ciphertext, parts []PartialDecryption,
	pub func(msg.NodeID) group.Element, cache *poly.LagrangeCache) (group.Element, error) {
	if !gr.IsElement(ct.C2) {
		return nil, ErrBadCipher
	}
	hs, err := CombineShares(gr, t, ct.C1, parts, pub, cache)
	if err != nil {
		return nil, err
	}
	return gr.Div(ct.C2, hs)
}

// CombineShares is the combining core: from t+1 valid shares
// D_i = h^{s_i} it returns h^s. Each share is verified at most once,
// against pub(id), and verification stops once t+1 shares are in hand;
// PartialsError names every sender that was checked and failed. Every
// share was published, so they combine on CombinePublic, with λ from
// cache, which must interpolate at 0.
func CombineShares(gr *group.Group, t int, h group.Element, parts []PartialDecryption,
	pub func(msg.NodeID) group.Element, cache *poly.LagrangeCache) (group.Element, error) {
	if !gr.IsElement(h) {
		return nil, ErrBadCipher
	}
	valid := make([]PartialDecryption, 0, t+1)
	checked := make(map[msg.NodeID]bool, t+1)
	var bad []msg.NodeID
	for _, pd := range parts {
		if len(valid) > t {
			break
		}
		if checked[pd.Decryptor] {
			continue
		}
		checked[pd.Decryptor] = true
		if !VerifyDecryption(gr, pub(pd.Decryptor), h, pd) {
			bad = append(bad, pd.Decryptor)
			continue
		}
		valid = append(valid, pd)
	}
	if len(valid) <= t {
		return nil, &PartialsError{Bad: bad, Valid: len(valid), Needed: t + 1}
	}
	indices := make([]int64, len(valid))
	for i, pd := range valid {
		indices[i] = int64(pd.Decryptor)
	}
	lambdas, err := cache.Coeffs(indices)
	if err != nil {
		return nil, err
	}
	return CombinePublic(gr, valid, lambdas), nil
}

// CombinePublic returns Π D_j^{λ_j} over published shares: every base
// went over the wire and every λ_j is a public Lagrange coefficient, so
// it runs on the variable-time multi-exp.
func CombinePublic(gr *group.Group, parts []PartialDecryption, lambdas []*big.Int) group.Element {
	bases := make([]group.Element, len(parts))
	for i, pd := range parts {
		bases[i] = pd.D
	}
	return gr.VarTimeMultiExp(bases, lambdas)
}

// OwnTerm returns h^{λ·share}, a combiner's own term of h^s when it
// folds in its share rather than publishing a partial. The exponent
// holds the share, so it stays on the constant-time Exp.
func OwnTerm(gr *group.Group, h group.Element, lambda, share *big.Int) group.Element {
	return gr.Exp(h, gr.MulQ(lambda, share))
}
