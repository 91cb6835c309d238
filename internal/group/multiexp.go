package group

import (
	"math/big"
	"math/bits"
)

// Multi-exponentiation — Π_i bases[i]^exps[i] in one pass — is the
// primitive behind every batched verification in the layers above:
// commitment identity checks, randomized-linear-combination batch
// verification of echo/ready points, and batched partial-signature
// checks. Backends provide two flavours:
//
//   - MultiExp keeps every secret-dependent scalar operation on the
//     backend's safest per-term path (the constant-time ladder on
//     p256, plain modexp on modp) and only shares the final
//     combination. Use it when any exponent is secret.
//   - VarTimeMultiExp is the verification fast path: Straus
//     interleaving (shared doublings/squarings across all terms) for
//     small term counts and Pippenger bucket accumulation for large
//     ones, with fixed-base acceleration for generator terms. Its
//     running time depends on the exponent values, so it must only
//     ever see public data — which is exactly what verification
//     equations are made of.
//
// Both reduce exponents mod q first (negative inputs included), skip
// identity bases and zero exponents, and return the group identity for
// an empty term list. Mismatched slice lengths are a programming
// error and panic, matching the backends' foreign-element handling.

// MultiExp returns Π bases[i]^exps[i] using per-term secret-safe
// exponentiation. See the package notes on multi-exponentiation.
func (gr *Group) MultiExp(bases []Element, exps []*big.Int) Element {
	checkMultiExpArgs(bases, exps)
	return gr.b.MultiExp(bases, exps)
}

// VarTimeMultiExp returns Π bases[i]^exps[i] on the variable-time
// Straus/Pippenger path. Exponents and bases must be public data.
func (gr *Group) VarTimeMultiExp(bases []Element, exps []*big.Int) Element {
	checkMultiExpArgs(bases, exps)
	return gr.b.VarTimeMultiExp(bases, exps)
}

func checkMultiExpArgs(bases []Element, exps []*big.Int) {
	if len(bases) != len(exps) {
		panic("group: multiexp bases/exps length mismatch")
	}
	for _, e := range exps {
		if e == nil {
			panic("group: nil multiexp exponent")
		}
	}
}

// reduceExps returns copies of exps reduced into [0, q), plus the bit
// length of the largest reduced exponent.
func reduceExps(q *big.Int, exps []*big.Int) (out []*big.Int, maxBits int) {
	out = make([]*big.Int, len(exps))
	for i, e := range exps {
		r := e
		if e.Sign() < 0 || e.Cmp(q) >= 0 {
			r = new(big.Int).Mod(e, q)
		}
		out[i] = r
		if b := r.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	return out, maxBits
}

// pippengerCutoff is the term count above which bucket accumulation
// (no per-base tables, cost ~k adds per window) beats interleaved
// tables (per-base precomputation).
const pippengerCutoff = 32

// strausWindow picks the signed-window width for an exponent of the
// given bit length: the table holds 2^(w-2) odd multiples per base and
// the expected nonzero-digit density is 1/(w+1), so wider windows only
// pay once exponents are long enough to amortize the table.
func strausWindow(expBits int) uint {
	switch {
	case expBits <= 8:
		return 2
	case expBits <= 32:
		return 3
	case expBits <= 96:
		return 4
	case expBits <= 256:
		return 5
	default:
		return 6
	}
}

// pippengerWindow picks the unsigned bucket-window width for k terms:
// each window level costs k bucket additions plus ~2·2^w running-sum
// additions, so w grows with log k.
func pippengerWindow(k int) uint {
	w := uint(bits.Len(uint(k))) - 2
	if w < 4 {
		w = 4
	}
	if w > 12 {
		w = 12
	}
	return w
}

// wnafDigits returns the width-w NAF of e: one signed digit per bit
// position, each either zero or odd with |d| < 2^(w-1). The sum
// Σ d_i·2^i equals e, and at most one of any w consecutive digits is
// nonzero. w must be in [2, 7] (digits fit int8) and 0 ≤ e < 2²⁵⁶.
//
// The recoding reads e's bits in place from a fixed limb copy: a
// window of w bits at the current position, plus a carry that stands
// for the 2^w a negative digit borrowed from the positions above it.
// After a nonzero digit the next w−1 digits are zero, so the position
// jumps by w.
func wnafDigits(e *big.Int, w uint) []int8 {
	if w < 2 || w > 7 {
		panic("group: wNAF width out of range")
	}
	n := e.BitLen()
	if e.Sign() < 0 || n > 256 {
		panic("group: wNAF exponent out of range")
	}
	var v [5]uint64 // e's limbs, little-endian; the top one stays zero
	if bits.UintSize == 64 {
		for i, word := range e.Bits() {
			v[i] = uint64(word)
		}
	} else {
		for i, word := range e.Bits() {
			v[i/2] |= uint64(word) << (32 * uint(i%2))
		}
	}
	digits := make([]int8, n+1)
	mask := uint64(1)<<w - 1
	half := uint64(1) << (w - 1)
	var carry uint64
	for pos := 0; pos <= n; {
		limb, sh := pos/64, uint(pos%64)
		buf := v[limb] >> sh
		if sh > 64-w {
			buf |= v[limb+1] << (64 - sh)
		}
		win := carry + buf&mask
		if win&1 == 0 {
			pos++ // an even window (2^w included) moves the carry up one bit
			continue
		}
		if win < half {
			digits[pos], carry = int8(win), 0
		} else {
			digits[pos], carry = int8(int64(win)-int64(mask+1)), 1
		}
		pos += int(w)
	}
	return digits
}

// windowDigit extracts the unsigned w-bit digit of e at bit offset
// off (little-endian digit order).
func windowDigit(e *big.Int, off int, w uint) uint {
	var d uint
	for b := uint(0); b < w; b++ {
		d |= e.Bit(off+int(b)) << b
	}
	return d
}
