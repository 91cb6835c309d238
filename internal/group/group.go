// Package group provides the abstract prime-order group the whole
// protocol stack operates on. Kate & Goldberg (ICDCS 2009, §2.3)
// present the protocols over a multiplicative subgroup G ⊂ Z_p* of
// prime order q, but nothing above the commitment layer depends on
// that instantiation: every protocol step needs only a group of prime
// order q with a fixed generator g, hash-to-group, and encode/decode.
// This package therefore splits the old concrete implementation into
//
//   - Backend: the pluggable element arithmetic of one group family
//     (ModP reproduces the paper's schoolbook Z_p* setting; P256 runs
//     the same protocols over the NIST P-256 elliptic curve), and
//   - Group: the shared front end coupling a Backend with the scalar
//     field arithmetic mod q, randomness helpers and Fiat–Shamir
//     hashing that are identical for every backend.
//
// Conventions used throughout the module:
//
//   - A "scalar" is a *big.Int in [0, q). Scalars are exponents and
//     polynomial coefficients; arithmetic on them is mod q and is the
//     same for every backend (internal/poly depends only on q).
//   - An "element" is an opaque, immutable Element value produced by a
//     backend (a subgroup member of Z_p* or a curve point). Protocol
//     code combines elements only through Group's methods and compares
//     them with Element.Equal.
//
// Functions never mutate their arguments; elements are immutable and
// may be shared freely.
package group

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common errors returned by validation helpers.
var (
	ErrNotScalar   = errors.New("group: value is not a scalar in [0, q)")
	ErrNotElement  = errors.New("group: value is not an element of the group")
	ErrBadParams   = errors.New("group: invalid group parameters")
	ErrBadEncoding = errors.New("group: malformed element encoding")
)

var one = big.NewInt(1)

// Element is an opaque handle to a group element. Implementations are
// immutable: every Backend operation returns a fresh value, so callers
// may alias and share elements freely. The only operations protocol
// code performs directly on an element are equality, canonical
// encoding and printing; everything else goes through Group/Backend.
type Element interface {
	// Equal reports whether o is the same group element. Elements of
	// different backends are never equal.
	Equal(o Element) bool
	// Bytes returns the canonical encoding understood by the owning
	// backend's Decode.
	Bytes() []byte
	// String returns a hex rendering of the canonical encoding.
	String() string
}

// Backend implements the element arithmetic of one group family. A
// backend fixes the prime order q, the generator g, and how elements
// are represented, combined, encoded and hashed to. All methods must
// be safe for concurrent use.
type Backend interface {
	// Name identifies the parameter set (e.g. "test256", "p256").
	Name() string
	// Q returns the prime order of the group (the scalar field).
	Q() *big.Int
	// SecurityBits returns |q|, the κ parameter of the paper.
	SecurityBits() int
	// ElementLen returns the maximum canonical encoding length.
	ElementLen() int
	// Generator returns the fixed generator g.
	Generator() Element
	// Identity returns the neutral element.
	Identity() Element
	// Mul returns the group operation a·b.
	Mul(a, b Element) Element
	// Inv returns a⁻¹, or an error for values outside the group.
	Inv(a Element) (Element, error)
	// Exp returns base^e for a non-negative integer e.
	Exp(base Element, e *big.Int) Element
	// GExp returns g^e.
	GExp(e *big.Int) Element
	// Horner evaluates Π_ℓ v[ℓ]^{x^ℓ} by Horner's rule in the
	// exponent for every chain v of chains at one small non-negative x
	// (a node index) — the chains at the core of commitment evaluation
	// and share verification. Backends keep each running value in
	// their fastest internal representation across its whole chain and
	// may convert all of them back at once. Every chain must be
	// non-empty.
	Horner(chains [][]Element, x int64) []Element
	// MultiExp returns Π bases[i]^exps[i] with every scalar
	// multiplication on the backend's secret-safe per-term path.
	// Exponents are reduced mod q; slices must have equal length.
	MultiExp(bases []Element, exps []*big.Int) Element
	// VarTimeMultiExp returns Π bases[i]^exps[i] on the variable-time
	// verification fast path (Straus interleaving for few terms,
	// Pippenger buckets for many), staying in the backend's fastest
	// internal representation across the whole accumulation. It must
	// only see public bases and exponents.
	VarTimeMultiExp(bases []Element, exps []*big.Int) Element
	// Contains reports whether e is a valid element of this group.
	Contains(e Element) bool
	// Decode parses a canonical encoding, validating membership.
	Decode(data []byte) (Element, error)
	// EncodeCompressed returns the wire-format-v2 compressed encoding:
	// the shortest canonical byte form the backend supports (fixed
	// 33-byte SEC 1 points for p256, minimal big-endian residues for
	// modp). Exactly one byte string encodes each element.
	EncodeCompressed(e Element) []byte
	// DecodeCompressed parses a compressed encoding, validating
	// membership and rejecting every non-canonical byte form.
	DecodeCompressed(data []byte) (Element, error)
	// CompressedLen returns the fixed compressed encoding length in
	// bytes, or 0 if compressed encodings are variable-width.
	CompressedLen() int
	// HashToElement maps bytes to an element of unknown discrete log.
	HashToElement(domain string, data ...[]byte) Element
	// Precompute hints that base will be used as a fixed base for many
	// Exp calls; backends may build acceleration tables (or do nothing).
	Precompute(base Element)
	// ParamsID returns a canonical fingerprint of the group parameters
	// for domain separation and group-equality checks.
	ParamsID() []byte
}

// Group couples a Backend with the scalar arithmetic mod q shared by
// all backends. It is the handle every protocol layer carries. The
// zero value is not usable; construct with FromBackend, ByName or one
// of the pinned parameter sets.
type Group struct {
	b Backend
	q *big.Int // cached copy of b.Q()
}

// FromBackend wraps a backend in a Group front end.
func FromBackend(b Backend) *Group {
	if b == nil {
		panic("group: nil backend")
	}
	return &Group{b: b, q: b.Q()}
}

// Backend exposes the underlying backend (for backend-specific
// tooling such as cmd/groupgen).
func (gr *Group) Backend() Backend { return gr.b }

// Name returns the backend's parameter-set name.
func (gr *Group) Name() string { return gr.b.Name() }

// Q returns the group order q (a copy).
func (gr *Group) Q() *big.Int { return new(big.Int).Set(gr.q) }

// SecurityBits returns the bit length of q (the κ security parameter
// of the paper governs |q|).
func (gr *Group) SecurityBits() int { return gr.b.SecurityBits() }

// ElementLen returns the byte length needed to encode an element.
func (gr *Group) ElementLen() int { return gr.b.ElementLen() }

// ScalarLen returns the byte length needed to encode a scalar.
func (gr *Group) ScalarLen() int { return (gr.q.BitLen() + 7) / 8 }

// ParamsID returns the backend's canonical parameter fingerprint.
func (gr *Group) ParamsID() []byte { return gr.b.ParamsID() }

// Equal reports whether two groups have identical parameters.
func (gr *Group) Equal(o *Group) bool {
	if gr == nil || o == nil {
		return gr == o
	}
	return string(gr.b.ParamsID()) == string(o.b.ParamsID())
}

// String implements fmt.Stringer with a short description.
func (gr *Group) String() string {
	return fmt.Sprintf("Group(%s,|q|=%d)", gr.b.Name(), gr.q.BitLen())
}

// --- element operations (delegated to the backend) -------------------

// Generator returns the fixed generator g.
func (gr *Group) Generator() Element { return gr.b.Generator() }

// Identity returns the neutral element.
func (gr *Group) Identity() Element { return gr.b.Identity() }

// Mul returns the group operation a·b.
func (gr *Group) Mul(a, b Element) Element { return gr.b.Mul(a, b) }

// Inv returns a⁻¹.
func (gr *Group) Inv(a Element) (Element, error) { return gr.b.Inv(a) }

// Div returns a·b⁻¹.
func (gr *Group) Div(a, b Element) (Element, error) {
	bi, err := gr.b.Inv(b)
	if err != nil {
		return nil, err
	}
	return gr.b.Mul(a, bi), nil
}

// Exp returns base^e. The exponent may be any non-negative integer
// (it acts mod q through the group order).
func (gr *Group) Exp(base Element, e *big.Int) Element { return gr.b.Exp(base, e) }

// GExp returns g^e.
func (gr *Group) GExp(e *big.Int) Element { return gr.b.GExp(e) }

// ExpInt returns base^k for a small non-negative machine-word
// exponent (node indices in Horner-in-the-exponent verification).
func (gr *Group) ExpInt(base Element, k int64) Element {
	return gr.b.Exp(base, big.NewInt(k))
}

// Horner evaluates Π_ℓ v[ℓ]^{x^ℓ} (Horner in the exponent) for a
// small non-negative x. It is the hot path of share verification and
// commitment evaluation; backends avoid per-step representation
// conversions. Both built-in backends evaluate a lone chain without
// the slices of a batch.
func (gr *Group) Horner(v []Element, x int64) Element {
	if h, ok := gr.b.(chainEvaluator); ok {
		return h.horner(v, x)
	}
	return gr.b.Horner([][]Element{v}, x)[0]
}

// chainEvaluator is a backend's one-chain Horner.
type chainEvaluator interface {
	horner(v []Element, x int64) Element
}

// HornerBatch evaluates Horner(v, x) for every chain v at one x. On
// p256 the chains leave Jacobian coordinates together, for one field
// inversion instead of one per chain.
func (gr *Group) HornerBatch(chains [][]Element, x int64) []Element {
	return gr.b.Horner(chains, x)
}

// IsElement reports whether e is a valid element of this group.
func (gr *Group) IsElement(e Element) bool {
	return e != nil && gr.b.Contains(e)
}

// CheckElement returns ErrNotElement unless e is a group element.
func (gr *Group) CheckElement(e Element) error {
	if !gr.IsElement(e) {
		return ErrNotElement
	}
	return nil
}

// EncodeElement returns the canonical encoding of e.
func (gr *Group) EncodeElement(e Element) []byte { return e.Bytes() }

// DecodeElement parses a canonical encoding, validating membership.
func (gr *Group) DecodeElement(data []byte) (Element, error) { return gr.b.Decode(data) }

// EncodeCompressed returns the wire-format-v2 compressed encoding.
func (gr *Group) EncodeCompressed(e Element) []byte { return gr.b.EncodeCompressed(e) }

// DecodeCompressed parses a compressed encoding, validating
// membership and canonicity.
func (gr *Group) DecodeCompressed(data []byte) (Element, error) {
	return gr.b.DecodeCompressed(data)
}

// CompressedLen returns the fixed compressed encoding length, or 0
// for variable-width backends.
func (gr *Group) CompressedLen() int { return gr.b.CompressedLen() }

// batchCompressedDecoder is the optional backend capability behind
// DecodeCompressedBatch, letting a backend share scratch state across
// a whole commitment matrix of decompressions.
type batchCompressedDecoder interface {
	DecodeCompressedBatch(encs [][]byte) ([]Element, error)
}

// DecodeCompressedBatch decodes many compressed encodings at once —
// the commitment-matrix unmarshalling path. Backends with a batch
// capability amortize per-element setup; others decode one by one.
// The first malformed encoding fails the whole batch.
func (gr *Group) DecodeCompressedBatch(encs [][]byte) ([]Element, error) {
	if bd, ok := gr.b.(batchCompressedDecoder); ok {
		return bd.DecodeCompressedBatch(encs)
	}
	out := make([]Element, len(encs))
	for i, enc := range encs {
		e, err := gr.b.DecodeCompressed(enc)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// HashToElement maps an arbitrary byte string to a group element with
// unknown discrete logarithm relative to g (used to derive the
// Pedersen generator h). The result is never the identity.
func (gr *Group) HashToElement(domain string, data ...[]byte) Element {
	return gr.b.HashToElement(domain, data...)
}

// Precompute hints that base will serve many fixed-base Exp calls.
func (gr *Group) Precompute(base Element) { gr.b.Precompute(base) }

// --- scalars ---------------------------------------------------------

// IsScalar reports whether x is a canonical scalar in [0, q).
func (gr *Group) IsScalar(x *big.Int) bool {
	return x != nil && x.Sign() >= 0 && x.Cmp(gr.q) < 0
}

// CheckScalar returns ErrNotScalar unless x is a canonical scalar.
func (gr *Group) CheckScalar(x *big.Int) error {
	if !gr.IsScalar(x) {
		return ErrNotScalar
	}
	return nil
}

// RandScalar samples a uniform scalar in [0, q) from r.
func (gr *Group) RandScalar(r io.Reader) (*big.Int, error) {
	return randInt(r, gr.q)
}

// RandNonZeroScalar samples a uniform scalar in [1, q).
func (gr *Group) RandNonZeroScalar(r io.Reader) (*big.Int, error) {
	for {
		x, err := gr.RandScalar(r)
		if err != nil {
			return nil, err
		}
		if x.Sign() != 0 {
			return x, nil
		}
	}
}

// AddQ returns a+b mod q.
func (gr *Group) AddQ(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(a, b), gr.q)
}

// SubQ returns a−b mod q.
func (gr *Group) SubQ(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Sub(a, b), gr.q)
}

// MulQ returns a·b mod q.
func (gr *Group) MulQ(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), gr.q)
}

// NegQ returns −a mod q.
func (gr *Group) NegQ(a *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Neg(a), gr.q)
}

// InvQ returns a⁻¹ mod q, or an error if a ≡ 0.
func (gr *Group) InvQ(a *big.Int) (*big.Int, error) {
	red := new(big.Int).Mod(a, gr.q)
	if red.Sign() == 0 {
		return nil, errors.New("group: no inverse of zero scalar")
	}
	return new(big.Int).ModInverse(red, gr.q), nil
}

// ModQ reduces an arbitrary integer into canonical scalar range.
func (gr *Group) ModQ(a *big.Int) *big.Int {
	return new(big.Int).Mod(a, gr.q)
}

// HashToScalar maps an arbitrary byte string to a scalar via SHA-256
// in counter mode (used for Fiat–Shamir challenges). The output is
// statistically close to uniform in [0, q) for |q| ≤ 512 bits.
func (gr *Group) HashToScalar(domain string, data ...[]byte) *big.Int {
	need := gr.ScalarLen() + 16 // oversample to reduce mod bias
	buf := hashExpand(domain, need, 0, data)
	return new(big.Int).Mod(new(big.Int).SetBytes(buf), gr.q)
}

// hashExpand derives need pseudorandom bytes from (domain, ctr, data)
// with SHA-256 in counter mode. It is the shared expansion primitive
// behind HashToScalar and the backends' HashToElement loops.
func hashExpand(domain string, need int, ctr uint32, data [][]byte) []byte {
	// One contiguous input buffer, rehashed per output block with only
	// the inner counter changing. Challenge hashing sits on the
	// data-plane per-request path, so the streaming-hash allocations
	// the obvious sha256.New loop would make matter; the output is
	// byte-for-byte what that loop produced.
	n := 8 + len(domain)
	for _, d := range data {
		n += 4 + len(d)
	}
	in := make([]byte, 8, n)
	binary.BigEndian.PutUint32(in[:4], ctr)
	in = append(in, domain...)
	for _, d := range data {
		in = binary.BigEndian.AppendUint32(in, uint32(len(d)))
		in = append(in, d...)
	}
	buf := make([]byte, 0, (need+sha256.Size-1)/sha256.Size*sha256.Size)
	for inner := uint32(0); len(buf) < need; inner++ {
		binary.BigEndian.PutUint32(in[4:8], inner)
		sum := sha256.Sum256(in)
		buf = append(buf, sum[:]...)
	}
	return buf[:need]
}

// --- internal randomness helpers ------------------------------------

// randInt returns a uniform integer in [0, max) from r.
func randInt(r io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, errors.New("group: non-positive sampling bound")
	}
	bitLen := max.BitLen()
	byteLen := (bitLen + 7) / 8
	buf := make([]byte, byteLen)
	excess := uint(byteLen*8 - bitLen)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("group: read randomness: %w", err)
		}
		buf[0] >>= excess
		v := new(big.Int).SetBytes(buf)
		if v.Cmp(max) < 0 {
			return v, nil
		}
	}
}

// randBits returns a uniform integer with exactly bits bits (top bit set).
func randBits(r io.Reader, bits int) (*big.Int, error) {
	if bits <= 0 {
		return nil, errors.New("group: non-positive bit count")
	}
	byteLen := (bits + 7) / 8
	buf := make([]byte, byteLen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("group: read randomness: %w", err)
	}
	excess := uint(byteLen*8 - bits)
	buf[0] >>= excess
	v := new(big.Int).SetBytes(buf)
	v.SetBit(v, bits-1, 1)
	return v, nil
}

// randPrime returns a probable prime with exactly bits bits.
func randPrime(r io.Reader, bits int) (*big.Int, error) {
	for {
		v, err := randBits(r, bits)
		if err != nil {
			return nil, err
		}
		v.SetBit(v, 0, 1) // odd
		if v.ProbablyPrime(32) {
			return v, nil
		}
	}
}
