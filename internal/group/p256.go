package group

import (
	"crypto/elliptic"
	"encoding/hex"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// P256Backend runs the protocols over the NIST P-256 elliptic curve
// (crypto/elliptic, stdlib only). The group is the curve's full point
// group — prime order n, cofactor 1 — written multiplicatively to
// match the paper's notation: Mul is point addition, Exp is scalar
// multiplication, the generator g is the standard base point.
//
// At ~128-bit security a scalar multiplication costs an order of
// magnitude less than a 2048-bit modexp, which is why modern DKG
// systems (Abraham et al. 2021; Feng et al. 2023) deploy over curves;
// the protocol layers above this package are unchanged.
//
// Canonical encoding: SEC 1 compressed points (33 bytes); the identity
// (point at infinity) is encoded as a single zero byte.
type P256Backend struct {
	curve elliptic.Curve
	q     *big.Int
	// Flat-limb base-point coordinates, for the multi-exp generator
	// fast path (compare-and-peel into one ScalarBaseMult).
	genFx, genFy fe

	combs baseCache[[2]fe, *p256Comb] // Precompute'd bases, by affine coords
}

var _ Backend = (*P256Backend)(nil)

// p256Element is a curve point in affine coordinates; (0, 0) is the
// point at infinity (the convention crypto/elliptic's arithmetic uses
// for identity inputs and outputs). Both big.Int and flat-limb forms
// are filled at construction, so the Jacobian hot path never converts
// and elements stay immutable (and race-free) afterwards.
type p256Element struct {
	x, y   *big.Int
	fx, fy fe
	// enc memoizes the compressed encoding: long-lived points (public
	// keys, nonce commitments) are hashed into a signing challenge on
	// every data-plane request, and SEC 1 marshalling would otherwise
	// dominate the hash. Atomic because elements are shared across the
	// verification pool. The cached slice is aliased by every Bytes
	// call; callers treat encodings as read-only.
	enc atomic.Pointer[[]byte]
}

// newP256Element builds the element from big.Int affine coordinates.
func newP256Element(x, y *big.Int) *p256Element {
	e := &p256Element{x: x, y: y}
	if !e.infinity() {
		feFromBig(&e.fx, x)
		feFromBig(&e.fy, y)
	}
	return e
}

// newP256ElementFE builds the element from flat-limb coordinates.
func newP256ElementFE(fx, fy *fe) *p256Element {
	return &p256Element{x: feToBig(fx), y: feToBig(fy), fx: *fx, fy: *fy}
}

func (e *p256Element) infinity() bool { return e.x.Sign() == 0 && e.y.Sign() == 0 }

// Equal implements Element.
func (e *p256Element) Equal(o Element) bool {
	oe, ok := o.(*p256Element)
	return ok && oe != nil && e.fx == oe.fx && e.fy == oe.fy &&
		e.infinity() == oe.infinity()
}

// Bytes implements Element. The returned slice is shared between
// calls; callers must not modify it.
func (e *p256Element) Bytes() []byte {
	if p := e.enc.Load(); p != nil {
		return *p
	}
	var b []byte
	if e.infinity() {
		b = []byte{0}
	} else {
		b = elliptic.MarshalCompressed(elliptic.P256(), e.x, e.y)
	}
	e.enc.Store(&b)
	return b
}

// String implements Element.
func (e *p256Element) String() string { return hex.EncodeToString(e.Bytes()) }

// NewP256 returns the P-256 backend.
func NewP256() *P256Backend {
	c := elliptic.P256()
	b := &P256Backend{
		curve: c,
		q:     new(big.Int).Set(c.Params().N),
	}
	feFromBig(&b.genFx, c.Params().Gx)
	feFromBig(&b.genFy, c.Params().Gy)
	return b
}

// Name implements Backend.
func (b *P256Backend) Name() string { return "p256" }

// Q implements Backend.
func (b *P256Backend) Q() *big.Int { return new(big.Int).Set(b.q) }

// SecurityBits implements Backend.
func (b *P256Backend) SecurityBits() int { return b.q.BitLen() }

// ElementLen implements Backend: a compressed point.
func (b *P256Backend) ElementLen() int { return 33 }

// Generator implements Backend.
func (b *P256Backend) Generator() Element {
	p := b.curve.Params()
	return newP256Element(new(big.Int).Set(p.Gx), new(big.Int).Set(p.Gy))
}

// Identity implements Backend.
func (b *P256Backend) Identity() Element {
	return &p256Element{x: new(big.Int), y: new(big.Int)}
}

// identity elements have zero fx/fy, matching the zero fe value, so
// Equal's limb comparison plus the infinity flag stays consistent.

func (b *P256Backend) el(e Element) *p256Element {
	pe, ok := e.(*p256Element)
	if !ok || pe == nil {
		panic("group: foreign element passed to p256 backend")
	}
	return pe
}

// Mul implements Backend (point addition) through the Jacobian fast
// path: one field inversion instead of crypto/elliptic's per-call
// affine/internal conversions.
func (b *P256Backend) Mul(x, y Element) Element {
	xe, ye := b.el(x), b.el(y)
	if xe.infinity() {
		return ye
	}
	if ye.infinity() {
		return xe
	}
	var j jp
	jpFromElement(&j, xe)
	var a ap
	apFromElement(&a, ye)
	jpAddAffine(&j, &a)
	return b.jpToAffine(&j)
}

// Inv implements Backend (point negation). Every point has an
// inverse, so the error is always nil.
func (b *P256Backend) Inv(x Element) (Element, error) {
	xe := b.el(x)
	if xe.infinity() {
		return b.Identity(), nil
	}
	return newP256Element(
		new(big.Int).Set(xe.x),
		new(big.Int).Sub(b.curve.Params().P, xe.y),
	), nil
}

// Exp implements Backend (scalar multiplication). Small exponents —
// the node indices of Horner-in-the-exponent verification — run
// through the Jacobian double-and-add path; full-width scalars use
// crypto/elliptic's constant-time ladder. Exponents are reduced mod q,
// matching the modp semantics.
func (b *P256Backend) Exp(base Element, e *big.Int) Element {
	be := b.el(base)
	if be.infinity() || e.Sign() == 0 {
		return b.Identity()
	}
	if e.BitLen() <= smallExpBits {
		var j, scratch jp
		jpFromElement(&j, be)
		jpExp(&j, &scratch, e.Int64())
		return b.jpToAffine(&j)
	}
	rx, ry := b.curve.ScalarMult(be.x, be.y, b.scalarBytes(e))
	return newP256Element(rx, ry)
}

// Horner implements Backend entirely in Jacobian coordinates: the
// accumulators never leave projective form, so all the chains together
// cost one field inversion.
func (b *P256Backend) Horner(chains [][]Element, x int64) []Element {
	acc := make([]jp, len(chains))
	for c, v := range chains {
		b.hornerJP(&acc[c], v, x)
	}
	return b.jpsToElements(acc)
}

// horner evaluates one chain straight to an element, without the
// slices a batch of chains needs.
func (b *P256Backend) horner(v []Element, x int64) Element {
	var acc jp
	b.hornerJP(&acc, v, x)
	return b.jpToAffine(&acc)
}

// hornerJP sets acc to Π_ℓ v[ℓ]^{x^ℓ} in Jacobian coordinates.
func (b *P256Backend) hornerJP(acc *jp, v []Element, x int64) {
	if len(v) == 0 {
		panic("group: empty Horner chain")
	}
	var scratch jp
	var a ap
	jpFromElement(acc, b.el(v[len(v)-1]))
	for l := len(v) - 2; l >= 0; l-- {
		jpExp(acc, &scratch, x)
		apFromElement(&a, b.el(v[l]))
		jpAddAffine(acc, &a)
	}
}

// GExp implements Backend.
func (b *P256Backend) GExp(e *big.Int) Element {
	if e.Sign() == 0 {
		return b.Identity()
	}
	rx, ry := b.curve.ScalarBaseMult(b.scalarBytes(e))
	return newP256Element(rx, ry)
}

// scalarBytes renders a non-negative exponent in the canonical range
// for crypto/elliptic (which reduces oversized scalars mod q itself).
func (b *P256Backend) scalarBytes(e *big.Int) []byte {
	if e.Cmp(b.q) >= 0 {
		e = new(big.Int).Mod(e, b.q)
	}
	return e.Bytes()
}

// Contains implements Backend: on the curve (cofactor 1, so on-curve
// implies subgroup membership) or the identity.
func (b *P256Backend) Contains(e Element) bool {
	pe, ok := e.(*p256Element)
	if !ok || pe == nil {
		return false
	}
	return pe.infinity() || b.curve.IsOnCurve(pe.x, pe.y)
}

// Decode implements Backend.
func (b *P256Backend) Decode(data []byte) (Element, error) {
	if len(data) == 1 && data[0] == 0 {
		return b.Identity(), nil
	}
	x, y := elliptic.UnmarshalCompressed(b.curve, data)
	if x == nil {
		return nil, ErrBadEncoding
	}
	return newP256Element(x, y), nil
}

// HashToElement implements Backend with try-and-increment: hash to a
// candidate x-coordinate, solve y² = x³ − 3x + b, retry with a fresh
// counter until a square root exists (~2 attempts in expectation).
// The output never is the identity and has unknown discrete log.
func (b *P256Backend) HashToElement(domain string, data ...[]byte) Element {
	params := b.curve.Params()
	p := params.P
	three := big.NewInt(3)
	for ctr := uint32(0); ; ctr++ {
		buf := hashExpand(domain, 48, ctr, data) // oversample past 32 bytes
		x := new(big.Int).Mod(new(big.Int).SetBytes(buf), p)
		// y² = x³ − 3x + b (the short Weierstrass form of NIST curves).
		y2 := new(big.Int).Exp(x, three, p)
		y2.Sub(y2, new(big.Int).Mul(three, x))
		y2.Add(y2, params.B)
		y2.Mod(y2, p)
		y := new(big.Int).ModSqrt(y2, p)
		if y == nil {
			continue
		}
		// Canonical root: pick the even y for determinism.
		if y.Bit(0) == 1 {
			y.Sub(p, y)
		}
		if !b.curve.IsOnCurve(x, y) {
			continue // x = 0 edge cases; next counter
		}
		return newP256Element(x, y)
	}
}

// Comb-table geometry for Precompute'd fixed bases. A base P gets
// chunk bases B_j = 2^(64·j)·P with the odd multiples (2d+1)·B_j
// pre-normalized to affine, so a full-width public exponent splits
// into per-chunk wNAF digit streams that ride VarTimeMultiExp's
// shared 64-position doubling chain — no per-call table build, no
// extra normalization inversion, and ~256/(w+1) mixed additions per
// exponentiation instead of a constant-time ladder call.
const (
	combW       = 5                // wNAF width; 2^(w−2) odd multiples per chunk
	combSpacing = 64               // bit spacing between chunk bases
	combChunks  = 5                // covers digit positions 0..256 (wNAF carry included)
	combEntries = 1 << (combW - 2) // odd multiples per chunk
	combCutoff  = 2 * combSpacing  // minimum exponent bits for the comb to beat Straus
)

// p256Comb holds one Precompute'd base's chunk tables:
// tab[j][d] = (2d+1)·2^(64·j)·P in affine coordinates.
type p256Comb struct {
	tab [combChunks][]ap
}

// Precompute implements Backend: builds the comb tables above so that
// VarTimeMultiExp serves full-width public exponentiations of base
// (batch-verification public keys, Pedersen h, the public shares
// decryption proofs are checked against) from precomputed affine
// points. crypto/elliptic already accelerates the generator; Exp stays
// on the constant-time ladder regardless, so secret exponents never
// touch these tables. Building costs ~256 doublings plus one batched
// normalization, amortized over a key's lifetime or epoch; at most
// maxFixedBases tables are kept.
func (b *P256Backend) Precompute(base Element) {
	pe, ok := base.(*p256Element)
	if !ok || pe.infinity() {
		return
	}
	key := [2]fe{pe.fx, pe.fy}
	if _, done := b.combs.get(key); done {
		return
	}
	all := make([]jp, 0, combChunks*combEntries)
	var cur jp
	jpFromElement(&cur, pe)
	for j := 0; j < combChunks; j++ {
		twice := cur
		jpDouble(&twice)
		entry := cur
		all = append(all, entry)
		for d := 1; d < combEntries; d++ {
			jpAdd(&entry, &twice)
			all = append(all, entry)
		}
		if j+1 < combChunks {
			for s := 0; s < combSpacing; s++ {
				jpDouble(&cur)
			}
		}
	}
	aff := b.batchToAffine(all)
	comb := &p256Comb{}
	for j := 0; j < combChunks; j++ {
		comb.tab[j] = aff[j*combEntries : (j+1)*combEntries]
	}
	b.combs.put(key, comb)
}

// comb returns the precomputed tables for pe, or nil.
func (b *P256Backend) comb(pe *p256Element) *p256Comb {
	c, _ := b.combs.get([2]fe{pe.fx, pe.fy})
	return c
}

// --- Jacobian fast path ----------------------------------------------
//
// crypto/elliptic converts to and from its internal representation on
// every call, which costs more than the group operation itself for the
// small-exponent chains commitment verification is made of. The
// verification hot path therefore runs on classic Jacobian coordinates
// (X, Y, Z) with x = X/Z², y = Y/Z³ over the flat-limb field of
// p256field.go: adds and doublings are a handful of 64-bit-limb
// multiplications with no heap traffic, and a whole Horner chain pays
// a single field inversion at the end. Full-width scalar
// multiplications (secret-dependent) stay on crypto/elliptic's
// constant-time ladder; the Jacobian path only ever processes public
// values (commitments, indices, signatures), so its variable-time
// arithmetic leaks nothing.

// smallExpBits bounds the exponents served by the variable-time
// double-and-add path (node indices and other public small integers).
const smallExpBits = 32

// feOne is 1 in the field layer's internal (Montgomery) domain; it is
// initialized by that layer's init.
var feOne fe

// jp is a Jacobian point; Z = 0 is infinity.
type jp struct{ x, y, z fe }

// ap is an affine operand prepared for mixed additions.
type ap struct {
	x, y fe
	inf  bool
}

func jpFromElement(j *jp, e *p256Element) {
	if e.infinity() {
		*j = jp{}
		return
	}
	j.x, j.y, j.z = e.fx, e.fy, feOne
}

func apFromElement(a *ap, e *p256Element) {
	if e.infinity() {
		*a = ap{inf: true}
		return
	}
	a.x, a.y, a.inf = e.fx, e.fy, false
}

func (b *P256Backend) jpToAffine(j *jp) *p256Element {
	if feIsZero(&j.z) {
		return &p256Element{x: new(big.Int), y: new(big.Int)}
	}
	var fzi, fzi2, fx, fy fe
	feInv(&fzi, &j.z)
	feSqr(&fzi2, &fzi)
	feMul(&fx, &j.x, &fzi2)
	feMul(&fy, &j.y, &fzi2)
	feMul(&fy, &fy, &fzi)
	return newP256ElementFE(&fx, &fy)
}

// jpsToElements normalizes Jacobian points with one shared inversion;
// points at infinity become the identity.
func (b *P256Backend) jpsToElements(pts []jp) []Element {
	live := make([]jp, 0, len(pts))
	for i := range pts {
		if !feIsZero(&pts[i].z) {
			live = append(live, pts[i])
		}
	}
	aff := make([]ap, len(live))
	b.batchToAffineInto(aff, live)
	out := make([]Element, len(pts))
	for i := range pts {
		if feIsZero(&pts[i].z) {
			out[i] = b.Identity()
			continue
		}
		out[i] = newP256ElementFE(&aff[0].x, &aff[0].y)
		aff = aff[1:]
	}
	return out
}

// jpDouble doubles in place (a = −3: 4M + 4S). With Y′ = 2Y it
// computes δ = Z², α = 3(X−δ)(X+δ), β′ = X·Y′² = 4XY² and
//
//	X3 = α² − 2β′,  Y3 = α(β′ − X3) − Y′⁴/2,  Z3 = Y′·Z,
//
// which is "dbl-2001-b" with one square traded for a multiply and
// seven additions for one halving.
func jpDouble(j *jp) {
	if feIsZero(&j.z) || feIsZero(&j.y) {
		j.z = fe{}
		return
	}
	var delta, y2, g4, b4, alpha, t1, t2, x3, y3, z3 fe
	feSqr(&delta, &j.z)      // Z²
	feAdd(&y2, &j.y, &j.y)   // Y′ = 2Y
	feMul(&z3, &y2, &j.z)    // 2YZ
	feSqr(&g4, &y2)          // Y′² = 4Y²
	feMul(&b4, &j.x, &g4)    // β′ = 4XY²
	feSub(&t1, &j.x, &delta) // X−δ
	feAdd(&t2, &j.x, &delta) // X+δ
	feMul(&alpha, &t1, &t2)  // (X−δ)(X+δ)
	feAdd(&t1, &alpha, &alpha)
	feAdd(&alpha, &t1, &alpha) // α = 3(X−δ)(X+δ)
	feSqr(&x3, &alpha)         // α²
	feAdd(&t1, &b4, &b4)
	feSub(&x3, &x3, &t1)    // α² − 8XY²
	feSub(&y3, &b4, &x3)    // β′ − X3
	feMul(&y3, &alpha, &y3) // α(β′ − X3)
	feSqr(&t1, &g4)         // 16Y⁴
	feHalf(&t1, &t1)        // 8Y⁴
	feSub(&y3, &y3, &t1)
	j.x, j.y, j.z = x3, y3, z3
}

// jpAddAffine adds an affine point in place ("madd-2004-hmv":
// 8M + 3S, with fewer additions than madd-2007-bl's 7M + 4S).
func jpAddAffine(j *jp, a *ap) {
	if a.inf {
		return
	}
	if feIsZero(&j.z) {
		j.x, j.y, j.z = a.x, a.y, feOne
		return
	}
	var z1z1, u2, s2, h, r, hh, hhh, v, t, x3, y3, z3 fe
	feSqr(&z1z1, &j.z)      // Z1²
	feMul(&u2, &a.x, &z1z1) // U2 = X2·Z1²
	feMul(&s2, &a.y, &j.z)
	feMul(&s2, &s2, &z1z1) // S2 = Y2·Z1³
	feSub(&h, &u2, &j.x)   // H = U2 − X1
	feSub(&r, &s2, &j.y)   // r = S2 − Y1
	if feIsZero(&h) {
		if feIsZero(&r) {
			jpDouble(j) // same point
			return
		}
		j.z = fe{} // inverse points: infinity
		return
	}
	feMul(&z3, &j.z, &h)  // Z1·H
	feSqr(&hh, &h)        // H²
	feMul(&hhh, &hh, &h)  // H³
	feMul(&v, &j.x, &hh)  // V = X1·H²
	feSqr(&x3, &r)        // r²
	feSub(&x3, &x3, &hhh) // r² − H³
	feAdd(&t, &v, &v)
	feSub(&x3, &x3, &t) // r² − H³ − 2V
	feSub(&y3, &v, &x3)
	feMul(&y3, &y3, &r) // r(V − X3)
	feMul(&t, &j.y, &hhh)
	feSub(&y3, &y3, &t) // r(V − X3) − Y1·H³
	j.x, j.y, j.z = x3, y3, z3
}

// jpAdd adds a second Jacobian point in place ("add-2007-bl": 11M+5S).
func jpAdd(j, o *jp) {
	if feIsZero(&o.z) {
		return
	}
	if feIsZero(&j.z) {
		*j = *o
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, i, jj, r, v, t, x3, y3, z3 fe
	feSqr(&z1z1, &j.z)
	feSqr(&z2z2, &o.z)
	feMul(&u1, &j.x, &z2z2) // X1·Z2²
	feMul(&u2, &o.x, &z1z1) // X2·Z1²
	feMul(&s1, &j.y, &o.z)
	feMul(&s1, &s1, &z2z2) // Y1·Z2³
	feMul(&s2, &o.y, &j.z)
	feMul(&s2, &s2, &z1z1) // Y2·Z1³
	feSub(&h, &u2, &u1)
	feSub(&r, &s2, &s1)
	if feIsZero(&h) {
		if feIsZero(&r) {
			jpDouble(j)
			return
		}
		j.z = fe{}
		return
	}
	feAdd(&r, &r, &r) // 2(S2−S1)
	feAdd(&i, &h, &h)
	feSqr(&i, &i) // (2H)²
	feMul(&jj, &h, &i)
	feMul(&v, &u1, &i)
	feSqr(&x3, &r)
	feSub(&x3, &x3, &jj)
	feAdd(&t, &v, &v)
	feSub(&x3, &x3, &t) // r² − J − 2V
	feSub(&y3, &v, &x3)
	feMul(&y3, &y3, &r)
	feMul(&t, &s1, &jj)
	feAdd(&t, &t, &t)
	feSub(&y3, &y3, &t) // r(V−X3) − 2S1·J
	feAdd(&z3, &j.z, &o.z)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &z2z2)
	feMul(&z3, &z3, &h) // ((Z1+Z2)²−Z1²−Z2²)·H
	j.x, j.y, j.z = x3, y3, z3
}

// jpExp raises the accumulator to a small public power by MSB-first
// double-and-add against a Jacobian copy of the base. scratch must not
// alias j.
func jpExp(j, scratch *jp, k int64) {
	switch {
	case k < 0:
		panic("group: negative Horner exponent")
	case k == 0:
		j.z = fe{}
		return
	case k == 1:
		return
	}
	if feIsZero(&j.z) {
		return // infinity^k = infinity
	}
	top := bits.Len64(uint64(k)) - 1
	if k&(k-1) == 0 {
		for i := 0; i < top; i++ {
			jpDouble(j)
		}
		return
	}
	*scratch = *j
	for i := top - 1; i >= 0; i-- {
		jpDouble(j)
		if k&(1<<uint(i)) != 0 {
			jpAdd(j, scratch)
		}
	}
}

// ParamsID implements Backend: the curve is fully determined by its
// standardised name.
func (b *P256Backend) ParamsID() []byte { return []byte("nist-p256/v1") }
