// Package commit implements the polynomial commitments of HybridVSS
// (Kate & Goldberg §3): Feldman-style commitment matrices to symmetric
// bivariate polynomials with the paper's verify-poly and verify-point
// predicates, Feldman vector commitments to univariate polynomials
// (used for DKG outputs, share renewal and node addition), and a
// Pedersen vector commitment as the ablation baseline discussed in §1.
//
// A Matrix commits to f(x,y) = Σ f_{jℓ} x^j y^ℓ as C_{jℓ} = g^{f_{jℓ}};
// a Vector commits to h(y) = Σ h_ℓ y^ℓ as V_ℓ = g^{h_ℓ}. Single-check
// verification uses Horner-in-the-exponent with the small node
// indices as exponents, which keeps a verify-point call at O(t) cheap
// exponentiations plus one full-width exponentiation; the echo/ready
// verification flood — the protocol's hottest path — goes through
// BatchVerifier, which collapses k point checks into one randomized-
// linear-combination multi-exponentiation (see batch.go). All element
// arithmetic goes through the pluggable group backend, so commitments
// work identically over Z_p* and elliptic-curve groups.
package commit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"hybriddkg/internal/group"
	"hybriddkg/internal/poly"
)

// Errors returned by commitment operations.
var (
	ErrDimensionMismatch = errors.New("commit: dimension mismatch")
	ErrGroupMismatch     = errors.New("commit: group mismatch")
	ErrBadEncoding       = errors.New("commit: bad encoding")
	ErrEmptyCombine      = errors.New("commit: nothing to combine")
)

// Matrix is a Feldman commitment to a symmetric bivariate polynomial:
// entries C_{jℓ} = g^{f_{jℓ}} for j,ℓ ∈ [0,t]. Matrices are immutable
// after construction and always symmetric (the wire encoding only
// carries the upper triangle, so asymmetric matrices cannot exist in
// transit — mirroring AVSS's symmetry check).
type Matrix struct {
	gr *group.Group
	t  int
	c  [][]group.Element

	// Lazy memos over the immutable entries. A verifier evaluates the
	// same matrix against its own index once per peer message (~2n
	// verify-point calls per sharing), and hashes it once per message
	// carrying it; both are pure functions of the entries.
	memoMu   sync.Mutex
	rowMemo  map[int64][]group.Element
	hash     [32]byte
	hashDone bool
}

// NewMatrix commits to the given symmetric bivariate polynomial.
func NewMatrix(gr *group.Group, f *poly.BiPoly) *Matrix {
	t := f.T()
	c := make([][]group.Element, t+1)
	for j := range c {
		c[j] = make([]group.Element, t+1)
	}
	for j := 0; j <= t; j++ {
		for l := j; l <= t; l++ {
			e := gr.GExp(f.Coeff(j, l))
			c[j][l] = e
			c[l][j] = e
		}
	}
	return &Matrix{gr: gr, t: t, c: c}
}

// T returns the committed polynomial degree.
func (m *Matrix) T() int { return m.t }

// Group returns the underlying group.
func (m *Matrix) Group() *group.Group { return m.gr }

// Entry returns C_{jℓ} (elements are immutable; sharing is safe).
func (m *Matrix) Entry(j, l int) group.Element { return m.c[j][l] }

// PublicKey returns C_{00} = g^{f(0,0)}, the public key of the shared
// secret.
func (m *Matrix) PublicKey() group.Element { return m.Entry(0, 0) }

// VerifyPoly implements the paper's verify-poly(C, i, a) predicate: it
// checks that the degree-t polynomial a is consistent with the
// commitment, i.e. g^{a_ℓ} = Π_j (C_{jℓ})^{i^j} for all ℓ ∈ [0,t].
// Because the matrix is symmetric, that right-hand side is exactly the
// memoized partial evaluation rowsFor(i) — verify-poly both consumes
// and warms the same memo verify-point uses.
func (m *Matrix) VerifyPoly(i int64, a *poly.Poly) bool {
	if a == nil || a.Degree() != m.t {
		return false
	}
	q := m.gr.Q()
	rows := m.rowsFor(i)
	for l := 0; l <= m.t; l++ {
		coef := a.Coeff(l)
		if coef.Sign() < 0 || coef.Cmp(q) >= 0 {
			return false
		}
		if !m.gr.GExp(coef).Equal(rows[l]) {
			return false
		}
	}
	return true
}

// VerifyPoint implements verify-point(C, i, m, α): it checks that α is
// the evaluation f(mIdx, i), i.e. g^α = Π_{j,ℓ} (C_{jℓ})^{mIdx^j · i^ℓ}.
//
// The partial evaluation R_j = Π_ℓ C_{jℓ}^{i^ℓ} depends only on the
// verifier's index i, so it is memoized: node i pays the O(t²) Horner
// sweep once per matrix and each subsequent point costs O(t) short
// exponentiations plus one full-width one. With ~2n verify-point calls
// per sharing this is the protocol's hottest loop.
func (m *Matrix) VerifyPoint(i, mIdx int64, alpha *big.Int) bool {
	if alpha == nil || alpha.Sign() < 0 || alpha.Cmp(m.gr.Q()) >= 0 {
		return false
	}
	rows := m.rowsFor(i)
	acc := m.gr.Horner(rows, mIdx)
	return m.gr.GExp(alpha).Equal(acc)
}

// rowsFor returns (computing and memoizing) R_j = Π_ℓ C_{jℓ}^{i^ℓ}
// for all rows j.
func (m *Matrix) rowsFor(i int64) []group.Element {
	m.memoMu.Lock()
	if rows, ok := m.rowMemo[i]; ok {
		m.memoMu.Unlock()
		return rows
	}
	m.memoMu.Unlock()
	rows := m.gr.HornerBatch(m.c, i)
	m.memoMu.Lock()
	if m.rowMemo == nil {
		m.rowMemo = make(map[int64][]group.Element, 4)
	}
	m.rowMemo[i] = rows
	m.memoMu.Unlock()
	return rows
}

// VerifyShare checks that s is node i's share f(i, 0):
// g^s = Π_j (C_{j0})^{i^j}. This is the Rec-protocol share check.
func (m *Matrix) VerifyShare(i int64, s *big.Int) bool {
	if s == nil || s.Sign() < 0 || s.Cmp(m.gr.Q()) >= 0 {
		return false
	}
	return m.gr.GExp(s).Equal(m.hornerColumn(0, i))
}

// SharePublic returns g^{f(i,0)}, the public verification key for node
// i's share.
func (m *Matrix) SharePublic(i int64) group.Element { return m.hornerColumn(0, i) }

// Column0 returns the Feldman vector commitment formed by the first
// column (the commitment to the univariate share polynomial f(x, 0)).
func (m *Matrix) Column0() *Vector {
	v := make([]group.Element, m.t+1)
	for j := 0; j <= m.t; j++ {
		v[j] = m.c[j][0]
	}
	return &Vector{gr: m.gr, v: v}
}

// Product returns the entrywise product of the matrices, committing to
// the sum of their polynomials. This is the DKG share-summation step:
// ∀p,q C_{p,q} ← Π_d (C_d)_{p,q}. Horner at x = 1 is the plain product
// of a chain, so each upper-triangle entry is one chain of a single
// Horner batch: bare Jacobian additions on p256, with one inversion
// for the whole matrix.
func Product(mats []*Matrix) (*Matrix, error) {
	if len(mats) == 0 {
		return nil, ErrEmptyCombine
	}
	gr, t := mats[0].gr, mats[0].t
	for _, m := range mats[1:] {
		if !m.gr.Equal(gr) {
			return nil, ErrGroupMismatch
		}
		if m.t != t {
			return nil, ErrDimensionMismatch
		}
	}
	var chains [][]group.Element
	for j := 0; j <= t; j++ {
		for l := j; l <= t; l++ {
			chain := make([]group.Element, len(mats))
			for d, m := range mats {
				chain[d] = m.c[j][l]
			}
			chains = append(chains, chain)
		}
	}
	sums := gr.HornerBatch(chains, 1)
	c := make([][]group.Element, t+1)
	for j := range c {
		c[j] = make([]group.Element, t+1)
	}
	for j := 0; j <= t; j++ {
		for l := j; l <= t; l++ {
			c[j][l], c[l][j] = sums[0], sums[0]
			sums = sums[1:]
		}
	}
	return &Matrix{gr: gr, t: t, c: c}, nil
}

// Equal reports entrywise equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if o == nil || m.t != o.t || !m.gr.Equal(o.gr) {
		return false
	}
	for j := 0; j <= m.t; j++ {
		for l := 0; l <= m.t; l++ {
			if !m.c[j][l].Equal(o.c[j][l]) {
				return false
			}
		}
	}
	return true
}

// Hash returns a SHA-256 digest of the canonical encoding, used as the
// commitment fingerprint for hashed echo/ready messages (the
// communication-complexity optimisation of §3, after Cachin et al.)
// and as the map key for per-commitment counters in HybridVSS. The
// digest is computed once and memoized — it is requested on every
// message carrying or referencing the matrix.
func (m *Matrix) Hash() [32]byte {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if !m.hashDone {
		enc, _ := m.MarshalBinary() // cannot fail: matrix is well-formed
		m.hash = sha256.Sum256(enc)
		m.hashDone = true
	}
	return m.hash
}

// MarshalBinary encodes the matrix: degree then the upper triangle
// (including diagonal) row by row, each entry length-prefixed. The
// symmetric representation halves the dominant wire cost (the
// constant-factor saving §3 attributes to symmetric bivariate
// polynomials).
func (m *Matrix) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	writeU32(&buf, uint32(m.t))
	for j := 0; j <= m.t; j++ {
		for l := j; l <= m.t; l++ {
			writeBlob(&buf, m.gr.EncodeElement(m.c[j][l]))
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalMatrix decodes a matrix in the given group, validating that
// every entry is a group element. Both wire formats decode: v1 bodies
// start with 0x00 (the high byte of a u32 degree ≤ 4096), v2 bodies
// with the 0xC2 marker (see compress.go).
func UnmarshalMatrix(gr *group.Group, data []byte) (*Matrix, error) {
	if len(data) > 0 && data[0] == matrixV2Marker {
		return unmarshalMatrixV2(gr, data)
	}
	r := bytes.NewReader(data)
	tU, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if tU > 4096 {
		return nil, fmt.Errorf("%w: degree %d too large", ErrBadEncoding, tU)
	}
	t := int(tU)
	// Reject before allocating O(t²) structures: the upper triangle
	// needs (t+1)(t+2)/2 entries of ≥ 4 bytes each, so a corrupt
	// header cannot force a huge allocation from a tiny input.
	if minLen := (t + 1) * (t + 2) / 2 * 4; r.Len() < minLen {
		return nil, fmt.Errorf("%w: %d bytes cannot hold a degree-%d matrix", ErrBadEncoding, r.Len(), t)
	}
	c := make([][]group.Element, t+1)
	for j := range c {
		c[j] = make([]group.Element, t+1)
	}
	for j := 0; j <= t; j++ {
		for l := j; l <= t; l++ {
			e, err := readElement(gr, r)
			if err != nil {
				return nil, fmt.Errorf("%w: entry (%d,%d): %v", ErrBadEncoding, j, l, err)
			}
			c[j][l] = e
			c[l][j] = e
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadEncoding)
	}
	return &Matrix{gr: gr, t: t, c: c}, nil
}

// hornerColumn computes Π_j C_{jℓ}^{i^j} for column ℓ by Horner's rule
// in the exponent (delegated to the backend's fused chain).
func (m *Matrix) hornerColumn(l int, i int64) group.Element {
	col := make([]group.Element, m.t+1)
	for j := 0; j <= m.t; j++ {
		col[j] = m.c[j][l]
	}
	return m.gr.Horner(col, i)
}

// Vector is a Feldman commitment to a univariate polynomial h:
// V_ℓ = g^{h_ℓ}. DKG completion, share renewal and node addition all
// publish Vector commitments (§4–§6).
type Vector struct {
	gr *group.Group
	v  []group.Element

	// Hash memo: entries never change after construction, so the
	// digest is a pure function of the vector — same contract as the
	// Matrix hash memo.
	hashOnce sync.Once
	hash     [32]byte
}

// NewVector commits to the univariate polynomial h.
func NewVector(gr *group.Group, h *poly.Poly) *Vector {
	v := make([]group.Element, h.Degree()+1)
	for l := range v {
		v[l] = gr.GExp(h.Coeff(l))
	}
	return &Vector{gr: gr, v: v}
}

// T returns the committed polynomial degree.
func (vc *Vector) T() int { return len(vc.v) - 1 }

// Group returns the underlying group.
func (vc *Vector) Group() *group.Group { return vc.gr }

// Entry returns V_ℓ.
func (vc *Vector) Entry(l int) group.Element { return vc.v[l] }

// PublicKey returns V_0 = g^{h(0)}.
func (vc *Vector) PublicKey() group.Element { return vc.Entry(0) }

// Eval returns g^{h(i)} = Π_ℓ V_ℓ^{i^ℓ}, the public key of share h(i).
func (vc *Vector) Eval(i int64) group.Element {
	return vc.gr.Horner(vc.v, i)
}

// VerifyShare checks g^s = g^{h(i)}.
func (vc *Vector) VerifyShare(i int64, s *big.Int) bool {
	if s == nil || s.Sign() < 0 || s.Cmp(vc.gr.Q()) >= 0 {
		return false
	}
	return vc.gr.GExp(s).Equal(vc.Eval(i))
}

// Mul returns the entrywise product (commitment to the polynomial sum).
func (vc *Vector) Mul(o *Vector) (*Vector, error) {
	if !vc.gr.Equal(o.gr) {
		return nil, ErrGroupMismatch
	}
	if len(vc.v) != len(o.v) {
		return nil, ErrDimensionMismatch
	}
	v := make([]group.Element, len(vc.v))
	for l := range v {
		v[l] = vc.gr.Mul(vc.v[l], o.v[l])
	}
	return &Vector{gr: vc.gr, v: v}, nil
}

// Equal reports entrywise equality.
func (vc *Vector) Equal(o *Vector) bool {
	if o == nil || len(vc.v) != len(o.v) || !vc.gr.Equal(o.gr) {
		return false
	}
	for l := range vc.v {
		if !vc.v[l].Equal(o.v[l]) {
			return false
		}
	}
	return true
}

// Hash returns a SHA-256 digest of the canonical encoding, computed
// once and memoized (vectors are immutable after construction, so
// invalidation cannot arise).
func (vc *Vector) Hash() [32]byte {
	vc.hashOnce.Do(func() {
		enc, _ := vc.MarshalBinary()
		vc.hash = sha256.Sum256(enc)
	})
	return vc.hash
}

// MarshalBinary encodes the vector.
func (vc *Vector) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	writeU32(&buf, uint32(len(vc.v)-1))
	for _, e := range vc.v {
		writeBlob(&buf, vc.gr.EncodeElement(e))
	}
	return buf.Bytes(), nil
}

// UnmarshalVector decodes a vector commitment in the given group.
// Both wire formats decode (0xC3 marks a v2 body, see compress.go).
func UnmarshalVector(gr *group.Group, data []byte) (*Vector, error) {
	if len(data) > 0 && data[0] == vectorV2Marker {
		return unmarshalVectorV2(gr, data)
	}
	r := bytes.NewReader(data)
	tU, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if tU > 4096 {
		return nil, fmt.Errorf("%w: degree %d too large", ErrBadEncoding, tU)
	}
	if minLen := (int(tU) + 1) * 4; r.Len() < minLen {
		return nil, fmt.Errorf("%w: %d bytes cannot hold a degree-%d vector", ErrBadEncoding, r.Len(), tU)
	}
	v := make([]group.Element, tU+1)
	for l := range v {
		e, err := readElement(gr, r)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadEncoding, l, err)
		}
		v[l] = e
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadEncoding)
	}
	return &Vector{gr: gr, v: v}, nil
}

// CombineColumn0 computes the renewed/transferred vector commitment
// V_ℓ = Π_d ((C_d)_{ℓ0})^{λ_d} for ℓ ∈ [0,t] (share renewal §5.2 and
// node addition §6.2). mats and lambdas must align.
func CombineColumn0(mats []*Matrix, lambdas []*big.Int) (*Vector, error) {
	if len(mats) == 0 {
		return nil, ErrEmptyCombine
	}
	if len(mats) != len(lambdas) {
		return nil, ErrDimensionMismatch
	}
	gr := mats[0].gr
	t := mats[0].t
	for _, m := range mats[1:] {
		if !m.gr.Equal(gr) {
			return nil, ErrGroupMismatch
		}
		if m.t != t {
			return nil, ErrDimensionMismatch
		}
	}
	// One multi-exponentiation per entry: commitments and coefficients are
	// public, and the per-dealer Exp-then-Mul it replaces normalised a
	// curve point (one field inversion) twice per dealer.
	v := make([]group.Element, t+1)
	bases := make([]group.Element, len(mats))
	for l := 0; l <= t; l++ {
		for d, m := range mats {
			bases[d] = m.c[l][0]
		}
		v[l] = gr.VarTimeMultiExp(bases, lambdas)
	}
	return &Vector{gr: gr, v: v}, nil
}

// --- wire helpers ----------------------------------------------------

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func readU32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := r.Read(b[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func writeBlob(buf *bytes.Buffer, b []byte) {
	writeU32(buf, uint32(len(b)))
	buf.Write(b)
}

func readBlob(r *bytes.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if int(n) > r.Len() {
		return nil, fmt.Errorf("%w: truncated entry", ErrBadEncoding)
	}
	b := make([]byte, n)
	if _, err := r.Read(b); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	return b, nil
}

func readElement(gr *group.Group, r *bytes.Reader) (group.Element, error) {
	b, err := readBlob(r)
	if err != nil {
		return nil, err
	}
	return gr.DecodeElement(b)
}
