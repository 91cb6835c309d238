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
	return ProveDecryption(gr, key.Self, key.Share, key.V.Eval(int64(key.Self)), ct, rand)
}

// ProveDecryption is the proving core: D = C1^share with a DLEQ proof
// against the public share y = g^share. The share is not re-checked
// against y; callers pass one they validated once (a data plane at key
// install, PartialDecrypt per call).
func ProveDecryption(gr *group.Group, self msg.NodeID, share *big.Int, y group.Element, ct Ciphertext, rand io.Reader) (PartialDecryption, error) {
	if !gr.IsElement(ct.C1) {
		return PartialDecryption{}, ErrBadCipher
	}
	d := gr.Exp(ct.C1, share)
	w, err := gr.RandNonZeroScalar(rand)
	if err != nil {
		return PartialDecryption{}, err
	}
	a1 := gr.GExp(w)
	a2 := gr.Exp(ct.C1, w)
	e := gr.HashToScalar(dleqDomain, y.Bytes(), ct.C1.Bytes(), d.Bytes(), a1.Bytes(), a2.Bytes())
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
	return VerifyDecryption(gr, v.Eval(int64(pd.Decryptor)), ct, pd)
}

// VerifyDecryption is the verifying core: with y the decryptor's public
// share, a1 = g^z·y^{−e} and a2 = C1^z·D^{−e} must hash back to e. The
// exponent q−e spares inversions. Every input is public, yet the check
// stays on the ladders: on p256 a 2-term VarTimeMultiExp for a2 reads
// 161 µs against 216 µs for two Exp and a Mul (BenchmarkMultiExp k=2,
// medians of 12 runs, 2-vCPU host), and a trial that moved a2 onto the
// chain and y^{−e} onto per-epoch comb tables left decrypt_n7 unmoved
// (+5/−1/−3 % over three rig pairs); on Z_p* big.Int.Exp beats the
// Straus chain (DESIGN.md, data plane).
func VerifyDecryption(gr *group.Group, y group.Element, ct Ciphertext, pd PartialDecryption) bool {
	if pd.D == nil || pd.Proof.E == nil || pd.Proof.Z == nil {
		return false
	}
	if !gr.IsElement(pd.D) || !gr.IsScalar(pd.Proof.E) || !gr.IsScalar(pd.Proof.Z) {
		return false
	}
	ne := gr.NegQ(pd.Proof.E)
	a1 := gr.Mul(gr.GExp(pd.Proof.Z), gr.Exp(y, ne))
	a2 := gr.Mul(gr.Exp(ct.C1, pd.Proof.Z), gr.Exp(pd.D, ne))
	e := gr.HashToScalar(dleqDomain, y.Bytes(), ct.C1.Bytes(), pd.D.Bytes(), a1.Bytes(), a2.Bytes())
	return e.Cmp(pd.Proof.E) == 0
}

// CombineDecrypt verifies partial decryptions and combines t+1 of
// them in the exponent: C1^s = Π D_i^{λ_i}, then m = C2 / C1^s.
func CombineDecrypt(gr *group.Group, v *commit.Vector, t int, ct Ciphertext, parts []PartialDecryption) (group.Element, error) {
	pub := func(i msg.NodeID) group.Element { return v.Eval(int64(i)) }
	return CombineDecryptWith(gr, t, ct, nil, parts, pub, poly.NewLagrangeCache(gr.Q(), 0))
}

// CombineDecryptWith is the combining core. own, when non-nil, is the
// caller's own share D = C1^{s_self}: it is trusted without a proof, as
// the caller checked its share once against the commitment. Each other
// decryptor is verified at most once, against pub(id), and verification
// stops once t+1 shares are in hand; PartialsError names every decryptor
// that was checked and failed. The combination involves own's secret
// share, so it stays on the constant-time MultiExp, with λ from cache,
// which must interpolate at 0.
func CombineDecryptWith(gr *group.Group, t int, ct Ciphertext, own *PartialDecryption, parts []PartialDecryption,
	pub func(msg.NodeID) group.Element, cache *poly.LagrangeCache) (group.Element, error) {
	if !gr.IsElement(ct.C1) || !gr.IsElement(ct.C2) {
		return nil, ErrBadCipher
	}
	valid := make([]PartialDecryption, 0, t+1)
	checked := make(map[msg.NodeID]bool, t+2)
	if own != nil {
		valid = append(valid, *own)
		checked[own.Decryptor] = true
	}
	var bad []msg.NodeID
	for _, pd := range parts {
		if len(valid) > t {
			break
		}
		if checked[pd.Decryptor] {
			continue
		}
		checked[pd.Decryptor] = true
		if !VerifyDecryption(gr, pub(pd.Decryptor), ct, pd) {
			bad = append(bad, pd.Decryptor)
			continue
		}
		valid = append(valid, pd)
	}
	if len(valid) <= t {
		return nil, &PartialsError{Bad: bad, Valid: len(valid), Needed: t + 1}
	}
	indices := make([]int64, len(valid))
	bases := make([]group.Element, len(valid))
	for i, pd := range valid {
		indices[i] = int64(pd.Decryptor)
		bases[i] = pd.D
	}
	lambdas, err := cache.Coeffs(indices)
	if err != nil {
		return nil, err
	}
	return gr.Div(ct.C2, gr.MultiExp(bases, lambdas))
}
