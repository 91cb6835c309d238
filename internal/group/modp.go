package group

import (
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
)

// ModP is the paper's §2.3 instantiation: a prime p with a κ-bit prime
// q dividing p−1 and a generator g of the multiplicative subgroup of
// Z_p* of order q. Elements are residues in [1, p) with elementᵠ ≡ 1
// (mod p); the canonical encoding is the minimal big-endian byte
// string of the residue.
//
// Repeated fixed-base exponentiations (the generator g in every
// commitment, the Pedersen h) are served from lazily built windowed
// tables: base^e is assembled as Π_i (base^{2^{wi}})^{d_i} from
// precomputed powers, replacing a full modexp (hundreds of squarings)
// with ~|q|/w modular multiplications.
//
// Timing model: this backend is NOT constant-time. math/big arithmetic
// never was, and the windowed path additionally skips one
// multiplication per all-zero exponent window, so operation time is
// data-dependent — including for secret exponents (dealing, blinding,
// nonces). That matches the schoolbook character of the paper's §2.3
// setting this backend reproduces; deployments that need
// constant-time secret-key operations should use the p256 backend,
// which keeps every secret-dependent scalar multiplication on
// crypto/elliptic's constant-time ladder.
type ModP struct {
	name string
	p    *big.Int // modulus of the ambient group Z_p*
	q    *big.Int // prime order of the subgroup
	g    *big.Int // generator of the subgroup

	// cofactor = (p−1)/q, used to map arbitrary residues into the
	// subgroup (hash-to-group).
	cofactor *big.Int

	gTab     *fbTable  // fixed-base table for g, built on first GExp
	gTabOnce sync.Once // guards gTab construction

	tabs baseCache[string, *fbTable] // Precompute'd bases, keyed by encoding
}

var _ Backend = (*ModP)(nil)

// modpElement is a subgroup member of Z_p*.
type modpElement struct {
	v *big.Int
	// enc memoizes the canonical encoding (see p256Element.enc): hot
	// paths hash the same long-lived points into every request
	// challenge. The cached slice is shared; encodings are read-only.
	enc atomic.Pointer[[]byte]
}

// Equal implements Element.
func (e *modpElement) Equal(o Element) bool {
	oe, ok := o.(*modpElement)
	return ok && oe != nil && e.v.Cmp(oe.v) == 0
}

// Bytes implements Element. The returned slice is shared between
// calls; callers must not modify it.
func (e *modpElement) Bytes() []byte {
	if p := e.enc.Load(); p != nil {
		return *p
	}
	b := e.v.Bytes()
	e.enc.Store(&b)
	return b
}

// String implements Element.
func (e *modpElement) String() string { return hex.EncodeToString(e.v.Bytes()) }

// NewModP validates (p, q, g) and returns the corresponding backend.
// It checks primality of p and q probabilistically, that q divides
// p−1, and that g generates a subgroup of order exactly q.
func NewModP(name string, p, q, g *big.Int) (*ModP, error) {
	if p == nil || q == nil || g == nil {
		return nil, fmt.Errorf("%w: nil parameter", ErrBadParams)
	}
	if !p.ProbablyPrime(32) {
		return nil, fmt.Errorf("%w: p is not prime", ErrBadParams)
	}
	if !q.ProbablyPrime(32) {
		return nil, fmt.Errorf("%w: q is not prime", ErrBadParams)
	}
	pm1 := new(big.Int).Sub(p, one)
	cofactor, rem := new(big.Int).QuoRem(pm1, q, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("%w: q does not divide p-1", ErrBadParams)
	}
	if g.Cmp(one) <= 0 || g.Cmp(p) >= 0 {
		return nil, fmt.Errorf("%w: generator out of range", ErrBadParams)
	}
	if new(big.Int).Exp(g, q, p).Cmp(one) != 0 {
		return nil, fmt.Errorf("%w: generator order does not divide q", ErrBadParams)
	}
	if name == "" {
		name = fmt.Sprintf("modp%d", p.BitLen())
	}
	return &ModP{
		name:     name,
		p:        new(big.Int).Set(p),
		q:        new(big.Int).Set(q),
		g:        new(big.Int).Set(g),
		cofactor: cofactor,
	}, nil
}

// New builds a Z_p* Group from raw (p, q, g) parameters.
func New(p, q, g *big.Int) (*Group, error) {
	b, err := NewModP("", p, q, g)
	if err != nil {
		return nil, err
	}
	return FromBackend(b), nil
}

// Generate creates fresh Z_p* group parameters with the requested bit
// sizes by sampling a bitsQ-bit prime q and searching for a bitsP-bit
// prime p = q·m + 1, then deriving a generator. Randomness is drawn
// from r (use crypto/rand.Reader for real parameters).
func Generate(bitsP, bitsQ int, r io.Reader) (*Group, error) {
	if bitsQ < 16 || bitsP < bitsQ+8 {
		return nil, fmt.Errorf("%w: sizes too small (p=%d q=%d bits)", ErrBadParams, bitsP, bitsQ)
	}
	q, err := randPrime(r, bitsQ)
	if err != nil {
		return nil, fmt.Errorf("generate q: %w", err)
	}
	// Search p = q*m + 1 with m random of the right size.
	mBits := bitsP - bitsQ
	for {
		m, err := randBits(r, mBits)
		if err != nil {
			return nil, fmt.Errorf("generate cofactor: %w", err)
		}
		// Force m even so p-1 = q*m keeps q odd-prime structure and p odd.
		m.And(m, new(big.Int).Not(one))
		if m.Sign() == 0 {
			continue
		}
		p := new(big.Int).Mul(q, m)
		p.Add(p, one)
		if p.BitLen() != bitsP || !p.ProbablyPrime(32) {
			continue
		}
		// Derive a generator: h^((p-1)/q) for successive small h.
		for h := int64(2); ; h++ {
			g := new(big.Int).Exp(big.NewInt(h), m, p)
			if g.Cmp(one) != 0 {
				return New(p, q, g)
			}
		}
	}
}

// P returns the ambient modulus p.
func (b *ModP) P() *big.Int { return new(big.Int).Set(b.p) }

// G returns the generator as a raw residue.
func (b *ModP) G() *big.Int { return new(big.Int).Set(b.g) }

// Name implements Backend.
func (b *ModP) Name() string { return b.name }

// Q implements Backend.
func (b *ModP) Q() *big.Int { return new(big.Int).Set(b.q) }

// SecurityBits implements Backend.
func (b *ModP) SecurityBits() int { return b.q.BitLen() }

// ElementLen implements Backend.
func (b *ModP) ElementLen() int { return (b.p.BitLen() + 7) / 8 }

// Generator implements Backend.
func (b *ModP) Generator() Element { return &modpElement{v: b.g} }

// Identity implements Backend.
func (b *ModP) Identity() Element { return &modpElement{v: big.NewInt(1)} }

// el unwraps an element, panicking on foreign types (a programming
// error: elements never legitimately cross backends).
func (b *ModP) el(e Element) *modpElement {
	me, ok := e.(*modpElement)
	if !ok || me == nil {
		panic("group: foreign element passed to modp backend")
	}
	return me
}

// Mul implements Backend.
func (b *ModP) Mul(x, y Element) Element {
	return &modpElement{v: new(big.Int).Mod(new(big.Int).Mul(b.el(x).v, b.el(y).v), b.p)}
}

// Inv implements Backend.
func (b *ModP) Inv(x Element) (Element, error) {
	red := new(big.Int).Mod(b.el(x).v, b.p)
	if red.Sign() == 0 {
		return nil, fmt.Errorf("%w: no inverse of zero", ErrNotElement)
	}
	return &modpElement{v: new(big.Int).ModInverse(red, b.p)}, nil
}

// Exp implements Backend. Bases registered with Precompute (and the
// generator) are served from fixed-base windowed tables.
func (b *ModP) Exp(base Element, e *big.Int) Element {
	be := b.el(base)
	if t := b.tableFor(be.v); t != nil && t.covers(e) {
		return &modpElement{v: t.exp(e)}
	}
	return &modpElement{v: new(big.Int).Exp(be.v, e, b.p)}
}

// GExp implements Backend.
func (b *ModP) GExp(e *big.Int) Element {
	t := b.generatorTable()
	if t.covers(e) {
		return &modpElement{v: t.exp(e)}
	}
	return &modpElement{v: new(big.Int).Exp(b.g, e, b.p)}
}

// Horner implements Backend, one chain at a time.
func (b *ModP) Horner(chains [][]Element, x int64) []Element {
	out := make([]Element, len(chains))
	for i, v := range chains {
		out[i] = b.horner(v, x)
	}
	return out
}

// horner evaluates one chain with the schoolbook step
// acc ← acc^x · v[ℓ], keeping the accumulator as a raw residue and
// reducing once per step. The per-step exponent is a node index, so
// the exponentiation runs as an in-place square-and-multiply over its
// few bits instead of paying big.Int.Exp's generic machinery — this
// chain sits under every verify-point and share-verification call.
func (b *ModP) horner(v []Element, x int64) Element {
	if len(v) == 0 {
		panic("group: empty Horner chain")
	}
	if x < 0 {
		// Negative indices never occur in the protocol; fall back to
		// the generic path which reduces the exponent mod q first.
		xB := new(big.Int).Mod(big.NewInt(x), b.q)
		acc := b.el(v[len(v)-1]).v
		tmp := new(big.Int)
		for l := len(v) - 2; l >= 0; l-- {
			acc = new(big.Int).Exp(acc, xB, b.p)
			tmp.Mul(acc, b.el(v[l]).v)
			acc.Mod(tmp, b.p)
		}
		if len(v) == 1 {
			acc = new(big.Int).Set(acc)
		}
		return &modpElement{v: acc}
	}
	acc := new(big.Int).Set(b.el(v[len(v)-1]).v)
	base := new(big.Int)
	tmp := new(big.Int)
	quo := new(big.Int)
	for l := len(v) - 2; l >= 0; l-- {
		b.expSmall(acc, uint64(x), base, tmp, quo)
		tmp.Mul(acc, b.el(v[l]).v)
		quo.QuoRem(tmp, b.p, acc)
	}
	return &modpElement{v: acc}
}

// expSmall replaces acc with acc^x mod p by left-to-right
// square-and-multiply; base, tmp and quo are scratch (the explicit
// quotient receiver avoids big.Int.Mod's per-call allocation in this
// innermost loop). x = 0 yields 1.
func (b *ModP) expSmall(acc *big.Int, x uint64, base, tmp, quo *big.Int) {
	switch x {
	case 0:
		acc.SetInt64(1)
		return
	case 1:
		return
	}
	base.Set(acc)
	for bit := bits.Len64(x) - 2; bit >= 0; bit-- {
		tmp.Mul(acc, acc)
		quo.QuoRem(tmp, b.p, acc)
		if x&(1<<uint(bit)) != 0 {
			tmp.Mul(acc, base)
			quo.QuoRem(tmp, b.p, acc)
		}
	}
}

// Contains implements Backend: membership in the order-q subgroup.
func (b *ModP) Contains(e Element) bool {
	me, ok := e.(*modpElement)
	if !ok || me == nil {
		return false
	}
	v := me.v
	if v.Sign() <= 0 || v.Cmp(b.p) >= 0 {
		return false
	}
	return new(big.Int).Exp(v, b.q, b.p).Cmp(one) == 0
}

// Decode implements Backend, validating subgroup membership.
func (b *ModP) Decode(data []byte) (Element, error) {
	e := &modpElement{v: new(big.Int).SetBytes(data)}
	if !b.Contains(e) {
		return nil, ErrBadEncoding
	}
	return e, nil
}

// CompressedLen implements Backend: residues are variable-width
// (minimal big-endian bytes), signalled by 0.
func (b *ModP) CompressedLen() int { return 0 }

// EncodeCompressed implements Backend. big.Int.Bytes is already the
// minimal big-endian form, so the compressed encoding coincides with
// the canonical one; the compressed codec adds only strictness on the
// decode side.
func (b *ModP) EncodeCompressed(e Element) []byte { return b.el(e).v.Bytes() }

// DecodeCompressed implements Backend, additionally rejecting padded
// (leading-zero) and empty encodings so each residue has exactly one
// compressed byte form. (Decode tolerates padding because SetBytes
// strips it; the v2 wire format does not.)
func (b *ModP) DecodeCompressed(data []byte) (Element, error) {
	if len(data) == 0 || data[0] == 0 {
		return nil, ErrBadEncoding
	}
	return b.Decode(data)
}

// HashToElement implements Backend by hashing to Z_p* and raising to
// the cofactor, which lands in the order-q subgroup with a discrete
// log nobody knows. The result is never the identity.
func (b *ModP) HashToElement(domain string, data ...[]byte) Element {
	need := b.ElementLen() + 16
	for ctr := uint32(0); ; ctr++ {
		buf := hashExpand(domain, need, ctr, data)
		x := new(big.Int).Mod(new(big.Int).SetBytes(buf), b.p)
		y := new(big.Int).Exp(x, b.cofactor, b.p)
		if y.Cmp(one) > 0 {
			return &modpElement{v: y}
		}
	}
}

// Precompute implements Backend: builds a fixed-base table for base so
// later Exp calls with it skip the full modexp. Idempotent.
func (b *ModP) Precompute(base Element) {
	v := b.el(base).v
	if v.Cmp(b.g) == 0 {
		b.generatorTable()
		return
	}
	key := string(v.Bytes())
	if _, ok := b.tabs.get(key); ok {
		return
	}
	b.tabs.put(key, newFBTable(v, b.p, b.q.BitLen()))
}

// ParamsID implements Backend.
func (b *ModP) ParamsID() []byte {
	out := []byte("modp/v1:")
	for _, v := range []*big.Int{b.p, b.q, b.g} {
		vb := v.Bytes()
		out = append(out, byte(len(vb)>>8), byte(len(vb)))
		out = append(out, vb...)
	}
	return out
}

// generatorTable returns the lazily built fixed-base table for g.
func (b *ModP) generatorTable() *fbTable {
	b.gTabOnce.Do(func() { b.gTab = newFBTable(b.g, b.p, b.q.BitLen()) })
	return b.gTab
}

// tableFor returns the fixed-base table registered for base, if any.
func (b *ModP) tableFor(base *big.Int) *fbTable {
	if base.Cmp(b.g) == 0 {
		return b.generatorTable()
	}
	t, _ := b.tabs.get(string(base.Bytes()))
	return t
}

// --- fixed-base windowed exponentiation ------------------------------

// fbWindowFor picks the window width in bits for a fixed-base table.
// Each window stores the 2^w−1 non-zero digit powers, so base^e needs
// at most ⌈|q|/w⌉ modular multiplications and zero squarings; wider
// windows trade table size and one-time build cost for a shorter
// multiplication chain. Short-exponent groups (the protocol's hot
// configurations) get w=8 (a 160-bit q costs 20 multiplications per
// exponentiation and a ~5k-entry table); big subgroups keep w=4 so
// table construction stays cheap relative to their rare use.
func fbWindowFor(expBits int) int {
	if expBits <= 512 {
		return 8
	}
	return 4
}

// fbTable holds win[i][j-1] = base^(j·2^{w·i}) mod p for j ∈ [1, 2^w).
type fbTable struct {
	p   *big.Int
	w   int
	win [][]*big.Int
}

func newFBTable(base, p *big.Int, expBits int) *fbTable {
	w := fbWindowFor(expBits)
	n := (expBits + w - 1) / w
	win := make([][]*big.Int, n)
	cur := new(big.Int).Set(base) // base^(2^{w·i}) for the current window
	for i := 0; i < n; i++ {
		row := make([]*big.Int, (1<<w)-1)
		row[0] = new(big.Int).Set(cur)
		for j := 1; j < len(row); j++ {
			row[j] = new(big.Int).Mod(new(big.Int).Mul(row[j-1], cur), p)
		}
		win[i] = row
		if i < n-1 {
			cur = new(big.Int).Mod(new(big.Int).Mul(row[len(row)-1], cur), p)
		}
	}
	return &fbTable{p: p, w: w, win: win}
}

// covers reports whether e fits in the table's exponent range.
func (t *fbTable) covers(e *big.Int) bool {
	return e.Sign() >= 0 && e.BitLen() <= len(t.win)*t.w
}

func (t *fbTable) exp(e *big.Int) *big.Int {
	acc := new(big.Int).SetInt64(1)
	tmp := new(big.Int)
	quo := new(big.Int)
	for i, row := range t.win {
		off := i * t.w
		var d uint
		for bit := 0; bit < t.w; bit++ {
			d |= e.Bit(off+bit) << bit
		}
		if d != 0 {
			tmp.Mul(acc, row[d-1])
			quo.QuoRem(tmp, t.p, acc)
		}
	}
	return acc
}
