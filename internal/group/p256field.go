package group

// Flat-limb arithmetic for the P-256 base field, used by the Jacobian
// verification fast path. A field element is four little-endian 64-bit
// limbs in the Montgomery domain (value·2²⁵⁶ mod p). Multiplication is
// word-by-word Montgomery (the shape of fiat-crypto's p256Mul, Erbsen
// et al., S&P 2019), which is particularly cheap for this prime
// because p ≡ −1 (mod 2⁶⁴) makes each step's quotient digit the
// accumulator's low word itself (n0′ = 1); squaring has its own
// ten-product path. Multiply, square, add, subtract and halve contain
// no data-dependent branch; each ends in its own masked reduction.
// feFromBig/feToBig are the only domain boundary — everything between
// them (the Jacobian formulas, the multi-exp accumulators) is
// domain-oblivious, and the zero element and limb equality are
// preserved by the Montgomery bijection. Everything is
// stack-allocated, so a whole Horner chain performs no heap work
// beyond the single final inversion.
//
// This code handles only public values (commitments, signatures, node
// indices); secret-dependent scalar multiplications stay on
// crypto/elliptic's constant-time implementation.

import (
	"math/big"
	"math/bits"
)

// fe is a P-256 base-field element: little-endian limbs, value < p,
// Montgomery domain.
type fe [4]uint64

// p256P is the field prime p; p0…p3 are its little-endian limbs as
// constants.
const (
	p0 = 0xffffffffffffffff
	p1 = 0x00000000ffffffff
	p2 = 0
	p3 = 0xffffffff00000001
)

var p256P = fe{p0, p1, p2, p3}

// p256RR is R² mod p (R = 2²⁵⁶) and feMontOne is R mod p (the
// Montgomery representation of 1); both are derived from p at init so
// no transcribed constant can silently diverge from p256P.
var (
	p256RR    fe
	feMontOne fe
)

func init() {
	p := feRawToBig(&p256P)
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	feRawFromBig(&feMontOne, new(big.Int).Mod(r, p))
	feRawFromBig(&p256RR, new(big.Int).Mod(new(big.Int).Mul(r, r), p))
	feOne = feMontOne
}

// feRawFromBig loads limbs without domain conversion.
func feRawFromBig(z *fe, v *big.Int) {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i := 0; i < 4; i++ {
		z[3-i] = uint64(buf[i*8])<<56 | uint64(buf[i*8+1])<<48 | uint64(buf[i*8+2])<<40 |
			uint64(buf[i*8+3])<<32 | uint64(buf[i*8+4])<<24 | uint64(buf[i*8+5])<<16 |
			uint64(buf[i*8+6])<<8 | uint64(buf[i*8+7])
	}
}

// feRawToBig reads limbs without domain conversion.
func feRawToBig(z *fe) *big.Int {
	var buf [32]byte
	for i := 0; i < 4; i++ {
		l := z[3-i]
		buf[i*8] = byte(l >> 56)
		buf[i*8+1] = byte(l >> 48)
		buf[i*8+2] = byte(l >> 40)
		buf[i*8+3] = byte(l >> 32)
		buf[i*8+4] = byte(l >> 24)
		buf[i*8+5] = byte(l >> 16)
		buf[i*8+6] = byte(l >> 8)
		buf[i*8+7] = byte(l)
	}
	return new(big.Int).SetBytes(buf[:])
}

// feFromBig converts a canonical value into the Montgomery domain.
func feFromBig(z *fe, v *big.Int) {
	var raw fe
	feRawFromBig(&raw, v)
	feMul(z, &raw, &p256RR) // v·R²·R⁻¹ = v·R
}

// feToBig converts back to a canonical big.Int value.
func feToBig(z *fe) *big.Int {
	var out fe
	feMul(&out, z, &fe{1}) // v·R·1·R⁻¹ = v
	return feRawToBig(&out)
}

func feIsZero(z *fe) bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// feAdd sets z = x + y mod p.
func feAdd(z, x, y *fe) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	// Subtract p when carry·2²⁵⁶ + z ≥ p, selecting by mask.
	var t0, t1, t2, t3, b uint64
	t0, b = bits.Sub64(z[0], p0, 0)
	t1, b = bits.Sub64(z[1], p1, b)
	t2, b = bits.Sub64(z[2], p2, b)
	t3, b = bits.Sub64(z[3], p3, b)
	_, b = bits.Sub64(c, 0, b) // b = 1 iff the sum is < p
	keep := -b
	z[0] = z[0]&keep | t0&^keep
	z[1] = z[1]&keep | t1&^keep
	z[2] = z[2]&keep | t2&^keep
	z[3] = z[3]&keep | t3&^keep
}

// feSub sets z = x − y mod p: on a borrow, p is added back through a
// mask rather than a branch.
func feSub(z, x, y *fe) {
	var b, c uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	mask := -b
	z[0], c = bits.Add64(z[0], p0&mask, 0)
	z[1], c = bits.Add64(z[1], p1&mask, c)
	z[2], c = bits.Add64(z[2], p2&mask, c)
	z[3], _ = bits.Add64(z[3], p3&mask, c)
}

// feHalf sets z = x/2 mod p: p is added when x is odd (through a
// mask), and the sum, below 2p, is shifted right one bit.
func feHalf(z, x *fe) {
	mask := -(x[0] & 1)
	var t0, t1, t2, t3, c uint64
	t0, c = bits.Add64(x[0], p0&mask, 0)
	t1, c = bits.Add64(x[1], p1&mask, c)
	t2, c = bits.Add64(x[2], p2&mask, c)
	t3, c = bits.Add64(x[3], p3&mask, c)
	z[0] = t0>>1 | t1<<63
	z[1] = t1>>1 | t2<<63
	z[2] = t2>>1 | t3<<63
	z[3] = t3>>1 | c<<63
}

// feNeg sets z = −x mod p. x must be < p; the result is 0 for x = 0.
func feNeg(z, x *fe) {
	if feIsZero(x) {
		*z = fe{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(p0, x[0], 0)
	z[1], b = bits.Sub64(p1, x[1], b)
	z[2], b = bits.Sub64(p2, x[2], b)
	z[3], _ = bits.Sub64(p3, x[3], b)
}

// feMul sets z = x·y, a word-by-word Montgomery multiply: for each limb
// of x, add that limb times y to a five-word accumulator, then add m·p
// with m the accumulator's low word (n0′ = 1 because p ≡ −1 mod 2⁶⁴)
// and drop that word. Because p = 2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1,
// m·p + (accumulator) clears the low word while adding m·2⁹⁶ (two
// shifts) and m·p[3]·2¹⁹² (one product), so a step costs five limb
// products. The accumulator stays below 2p; one masked subtraction
// finishes.
func feMul(z, x, y *fe) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var a0, a1, a2, a3, a4, c, h0, h1, h2, h3, l0, l1, l2, l3, s0, s1, s2, s3, s4, s5, ph, pl uint64

	// limb 0
	h0, l0 = bits.Mul64(x[0], y0)
	h1, l1 = bits.Mul64(x[0], y1)
	h2, l2 = bits.Mul64(x[0], y2)
	h3, l3 = bits.Mul64(x[0], y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	s0, c = bits.Add64(a0, l0, 0)
	s1, c = bits.Add64(a1, l1, c)
	s2, c = bits.Add64(a2, l2, c)
	s3, c = bits.Add64(a3, l3, c)
	s4, s5 = bits.Add64(a4, h3, c)
	ph, pl = bits.Mul64(s0, p3)
	a0, c = bits.Add64(s1, s0<<32, 0)
	a1, c = bits.Add64(s2, s0>>32, c)
	a2, c = bits.Add64(s3, pl, c)
	a3, c = bits.Add64(s4, ph, c)
	a4 = s5 + c

	// limb 1
	h0, l0 = bits.Mul64(x[1], y0)
	h1, l1 = bits.Mul64(x[1], y1)
	h2, l2 = bits.Mul64(x[1], y2)
	h3, l3 = bits.Mul64(x[1], y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	s0, c = bits.Add64(a0, l0, 0)
	s1, c = bits.Add64(a1, l1, c)
	s2, c = bits.Add64(a2, l2, c)
	s3, c = bits.Add64(a3, l3, c)
	s4, s5 = bits.Add64(a4, h3, c)
	ph, pl = bits.Mul64(s0, p3)
	a0, c = bits.Add64(s1, s0<<32, 0)
	a1, c = bits.Add64(s2, s0>>32, c)
	a2, c = bits.Add64(s3, pl, c)
	a3, c = bits.Add64(s4, ph, c)
	a4 = s5 + c

	// limb 2
	h0, l0 = bits.Mul64(x[2], y0)
	h1, l1 = bits.Mul64(x[2], y1)
	h2, l2 = bits.Mul64(x[2], y2)
	h3, l3 = bits.Mul64(x[2], y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	s0, c = bits.Add64(a0, l0, 0)
	s1, c = bits.Add64(a1, l1, c)
	s2, c = bits.Add64(a2, l2, c)
	s3, c = bits.Add64(a3, l3, c)
	s4, s5 = bits.Add64(a4, h3, c)
	ph, pl = bits.Mul64(s0, p3)
	a0, c = bits.Add64(s1, s0<<32, 0)
	a1, c = bits.Add64(s2, s0>>32, c)
	a2, c = bits.Add64(s3, pl, c)
	a3, c = bits.Add64(s4, ph, c)
	a4 = s5 + c

	// limb 3
	h0, l0 = bits.Mul64(x[3], y0)
	h1, l1 = bits.Mul64(x[3], y1)
	h2, l2 = bits.Mul64(x[3], y2)
	h3, l3 = bits.Mul64(x[3], y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	s0, c = bits.Add64(a0, l0, 0)
	s1, c = bits.Add64(a1, l1, c)
	s2, c = bits.Add64(a2, l2, c)
	s3, c = bits.Add64(a3, l3, c)
	s4, s5 = bits.Add64(a4, h3, c)
	ph, pl = bits.Mul64(s0, p3)
	a0, c = bits.Add64(s1, s0<<32, 0)
	a1, c = bits.Add64(s2, s0>>32, c)
	a2, c = bits.Add64(s3, pl, c)
	a3, c = bits.Add64(s4, ph, c)
	a4 = s5 + c

	// Subtract p when a4·2²⁵⁶ + a < 2p is ≥ p, selecting by mask. The
	// subtraction is written out here rather than called: a call above
	// the inliner's budget would store z only to load it again.
	var b uint64
	s0, b = bits.Sub64(a0, p0, 0)
	s1, b = bits.Sub64(a1, p1, b)
	s2, b = bits.Sub64(a2, p2, b)
	s3, b = bits.Sub64(a3, p3, b)
	_, b = bits.Sub64(a4, 0, b) // b = 1 iff the value is < p
	keep := -b
	z[0] = a0&keep | s0&^keep
	z[1] = a1&keep | s1&^keep
	z[2] = a2&keep | s2&^keep
	z[3] = a3&keep | s3&^keep
}

// feSqr sets z = x². The ten limb products (six cross products
// doubled, four squares) form the 512-bit square; its low half is
// Montgomery-reduced in four single-product steps (as in feMul) to a
// value ≤ p, and the high half (< p, since x² < p²) is added to it
// before one masked subtraction.
func feSqr(z, x *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var c, t0, t1, t2, t3, t4, t5, t6, t7 uint64

	// Cross products x_i·x_j, i < j, at limb i+j.
	h01, t1 := bits.Mul64(x0, x1)
	h02, l02 := bits.Mul64(x0, x2)
	h03, l03 := bits.Mul64(x0, x3)
	h12, l12 := bits.Mul64(x1, x2)
	h13, l13 := bits.Mul64(x1, x3)
	h23, l23 := bits.Mul64(x2, x3)
	t2, c = bits.Add64(l02, h01, 0)
	t3, c = bits.Add64(l03, h02, c)
	t4 = h03 + c
	l13, c = bits.Add64(l13, h12, 0)
	h13 += c
	t3, c = bits.Add64(t3, l12, 0)
	t4, c = bits.Add64(t4, l13, c)
	t5 = h13 + c
	t5, c = bits.Add64(t5, l23, 0)
	t6 = h23 + c

	// Double them.
	t7 = t6 >> 63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1

	// Add the squares x_i² at limb 2i.
	h0, t0 := bits.Mul64(x0, x0)
	h1, l1 := bits.Mul64(x1, x1)
	h2, l2 := bits.Mul64(x2, x2)
	h3, l3 := bits.Mul64(x3, x3)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, h1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, c = bits.Add64(t5, h2, c)
	t6, c = bits.Add64(t6, l3, c)
	t7 += h3 + c

	// Reduce the low half: four steps of t = (t + t0·p) / 2⁶⁴, each
	// below 2²⁵⁶.
	var m, ph, pl uint64
	m = t0
	ph, pl = bits.Mul64(m, p3)
	t0, c = bits.Add64(t1, m<<32, 0)
	t1, c = bits.Add64(t2, m>>32, c)
	t2, c = bits.Add64(t3, pl, c)
	t3 = ph + c
	m = t0
	ph, pl = bits.Mul64(m, p3)
	t0, c = bits.Add64(t1, m<<32, 0)
	t1, c = bits.Add64(t2, m>>32, c)
	t2, c = bits.Add64(t3, pl, c)
	t3 = ph + c
	m = t0
	ph, pl = bits.Mul64(m, p3)
	t0, c = bits.Add64(t1, m<<32, 0)
	t1, c = bits.Add64(t2, m>>32, c)
	t2, c = bits.Add64(t3, pl, c)
	t3 = ph + c
	m = t0
	ph, pl = bits.Mul64(m, p3)
	t0, c = bits.Add64(t1, m<<32, 0)
	t1, c = bits.Add64(t2, m>>32, c)
	t2, c = bits.Add64(t3, pl, c)
	t3 = ph + c
	t0, c = bits.Add64(t0, t4, 0)
	t1, c = bits.Add64(t1, t5, c)
	t2, c = bits.Add64(t2, t6, c)
	t3, c = bits.Add64(t3, t7, c)

	// Subtract p when c·2²⁵⁶ + t < 2p is ≥ p, selecting by mask.
	var b uint64
	t4, b = bits.Sub64(t0, p0, 0)
	t5, b = bits.Sub64(t1, p1, b)
	t6, b = bits.Sub64(t2, p2, b)
	t7, b = bits.Sub64(t3, p3, b)
	_, b = bits.Sub64(c, 0, b) // b = 1 iff the value is < p
	keep := -b
	z[0] = t0&keep | t4&^keep
	z[1] = t1&keep | t5&^keep
	z[2] = t2&keep | t6&^keep
	z[3] = t3&keep | t7&^keep
}

// feSqrN sets z = x^(2^n) by n in-place squarings.
func feSqrN(z, x *fe, n int) {
	feSqr(z, x)
	for i := 1; i < n; i++ {
		feSqr(z, z)
	}
}

// feInv sets z = x⁻¹ (zero input yields zero) as the exponentiation
// x^(p−2), run as an addition chain of 255 squarings and 12
// multiplications over the flat-limb field (chain generated with
// addchain; the same one crypto/internal/nistec uses). Replacing a
// big.Int ModInverse with this keeps the Jacobian machinery's
// normalizations — one per multi-exp plus one per table batch — off
// the generic extended-GCD path.
func feInv(z, x *fe) {
	var t0, t1, t2, x15, x16, x47, acc fe
	feSqr(&t0, x)           // _10 = x²
	feSqr(&t1, &t0)         // _100
	feMul(&t1, x, &t1)      // _101
	feMul(&t0, &t0, &t1)    // _111
	feSqrN(&t1, &t0, 3)     // _111000
	feMul(&t1, &t0, &t1)    // _111111
	feSqrN(&t2, &t1, 6)     //
	feMul(&t1, &t1, &t2)    // x12 = x^(2¹²−1)
	feSqrN(&t2, &t1, 3)     //
	feMul(&x15, &t2, &t0)   // x15 = x^(2¹⁵−1)
	feSqr(&t2, &x15)        //
	feMul(&x16, &t2, x)     // x16 = x^(2¹⁶−1)
	feSqrN(&t2, &x16, 16)   //
	feMul(&t2, &t2, &x16)   // x32 = x^(2³²−1)
	feSqrN(&acc, &t2, 15)   // i53 = x32 << 15
	feMul(&x47, &x15, &acc) // x47 = x15 + i53
	feSqrN(&acc, &acc, 17)  // i53 << 17
	feMul(&acc, &acc, x)    // + 1
	feSqrN(&acc, &acc, 143) // << 143
	feMul(&acc, &acc, &x47) // + x47
	feSqrN(&acc, &acc, 47)  // << 47  (= i263)
	feMul(&acc, &acc, &x47) // x47 + i263
	feSqrN(&acc, &acc, 2)   // << 2
	feMul(z, &acc, x)       // + 1
}

// feSqrt sets z to the even-or-odd square root of x when x is a
// quadratic residue and reports whether one exists. p ≡ 3 (mod 4), so
// the candidate root is x^((p+1)/4); with
//
//	(p+1)/4 = 2²⁵⁴ − 2²²² + 2¹⁹⁰ + 2⁹⁴
//	        = ((((2³²−1)·2³² + 1)·2⁹⁶ + 1)·2⁹⁴
//
// the exponentiation runs as an addition chain of 253 squarings and 7
// multiplications over the flat-limb field — the whole point of the
// fast decompression path, since a big.Int ModSqrt re-pays generic
// modexp machinery per point. Verifying candidate² = x rejects
// non-residues (x-coordinates off the curve).
func feSqrt(z, x *fe) bool {
	var cand, t fe
	feSqrN(&cand, x, 1)
	feMul(&cand, x, &cand) // x^(2²−1)
	feSqrN(&t, &cand, 2)
	feMul(&cand, &cand, &t) // x^(2⁴−1)
	feSqrN(&t, &cand, 4)
	feMul(&cand, &cand, &t) // x^(2⁸−1)
	feSqrN(&t, &cand, 8)
	feMul(&cand, &cand, &t) // x^(2¹⁶−1)
	feSqrN(&t, &cand, 16)
	feMul(&cand, &cand, &t) // x^(2³²−1)
	feSqrN(&cand, &cand, 32)
	feMul(&cand, &cand, x) // x^((2³²−1)·2³² + 1)
	feSqrN(&cand, &cand, 96)
	feMul(&cand, &cand, x) // … ·2⁹⁶ + 1
	feSqrN(&cand, &cand, 94)
	var chk fe
	feSqr(&chk, &cand)
	if chk != *x {
		return false
	}
	*z = cand
	return true
}
