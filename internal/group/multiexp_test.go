package group

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"hybriddkg/internal/randutil"
)

// naiveMultiExp is the Π Exp reference both fast paths must match.
func naiveMultiExp(gr *Group, bases []Element, exps []*big.Int) Element {
	acc := gr.Identity()
	for i := range bases {
		acc = gr.Mul(acc, gr.Exp(bases[i], new(big.Int).Mod(exps[i], gr.Q())))
	}
	return acc
}

// multiExpBackends returns every backend the conformance suite runs
// against (one Z_p* family member and the curve).
func multiExpBackends(t testing.TB) []*Group {
	t.Helper()
	return []*Group{Test256(), Test512(), P256()}
}

// randomTerms builds k (base, exponent) pairs with a mix of generator
// multiples and hashed (unknown-dlog) bases.
func randomTerms(t testing.TB, gr *Group, k int, seed uint64) ([]Element, []*big.Int) {
	t.Helper()
	r := randutil.NewReader(seed)
	bases := make([]Element, k)
	exps := make([]*big.Int, k)
	for i := 0; i < k; i++ {
		e, err := gr.RandScalar(r)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = e
		switch i % 3 {
		case 0:
			s, err := gr.RandScalar(r)
			if err != nil {
				t.Fatal(err)
			}
			bases[i] = gr.GExp(s)
		case 1:
			bases[i] = gr.HashToElement("hybriddkg/multiexp-test", []byte{byte(i), byte(seed)})
		default:
			bases[i] = gr.Generator()
		}
	}
	return bases, exps
}

// TestMultiExpConformance checks MultiExp and VarTimeMultiExp against
// the naive reference across backends and term counts, including the
// Straus→Pippenger crossover.
func TestMultiExpConformance(t *testing.T) {
	for _, gr := range multiExpBackends(t) {
		t.Run(gr.Name(), func(t *testing.T) {
			for _, k := range []int{1, 2, 3, 17, 100} {
				bases, exps := randomTerms(t, gr, k, uint64(k)*7+1)
				want := naiveMultiExp(gr, bases, exps)
				if got := gr.MultiExp(bases, exps); !got.Equal(want) {
					t.Fatalf("k=%d: MultiExp mismatch", k)
				}
				if got := gr.VarTimeMultiExp(bases, exps); !got.Equal(want) {
					t.Fatalf("k=%d: VarTimeMultiExp mismatch", k)
				}
			}
		})
	}
}

// TestMultiExpEdgeExponents exercises the exponent edge cases: zero,
// one, q−1, q (≡ 0), values above q, and tiny windows.
func TestMultiExpEdgeExponents(t *testing.T) {
	for _, gr := range multiExpBackends(t) {
		t.Run(gr.Name(), func(t *testing.T) {
			q := gr.Q()
			h := gr.HashToElement("hybriddkg/multiexp-edge", []byte("h"))
			h2 := gr.HashToElement("hybriddkg/multiexp-edge", []byte("h2"))
			qm1 := new(big.Int).Sub(q, big.NewInt(1))
			cases := [][]*big.Int{
				{big.NewInt(0), big.NewInt(0), big.NewInt(0)},
				{big.NewInt(1), big.NewInt(0), big.NewInt(1)},
				{qm1, big.NewInt(1), big.NewInt(0)},
				{qm1, qm1, qm1},
				{new(big.Int).Set(q), big.NewInt(2), qm1},
				{new(big.Int).Add(q, big.NewInt(5)), big.NewInt(3), big.NewInt(7)},
			}
			bases := []Element{gr.Generator(), h, h2}
			for ci, exps := range cases {
				want := naiveMultiExp(gr, bases, exps)
				if got := gr.MultiExp(bases, exps); !got.Equal(want) {
					t.Fatalf("case %d: MultiExp mismatch", ci)
				}
				if got := gr.VarTimeMultiExp(bases, exps); !got.Equal(want) {
					t.Fatalf("case %d: VarTimeMultiExp mismatch", ci)
				}
			}
			// Empty input is the identity.
			if !gr.MultiExp(nil, nil).Equal(gr.Identity()) {
				t.Fatal("empty MultiExp is not identity")
			}
			if !gr.VarTimeMultiExp(nil, nil).Equal(gr.Identity()) {
				t.Fatal("empty VarTimeMultiExp is not identity")
			}
			// Identity bases contribute nothing.
			if got := gr.VarTimeMultiExp([]Element{gr.Identity()}, []*big.Int{qm1}); !got.Equal(gr.Identity()) {
				t.Fatal("identity base changed the product")
			}
		})
	}
}

// TestMultiExpDuplicateBases checks that repeated bases (including
// many generator terms, which the fast path merges) accumulate
// correctly.
func TestMultiExpDuplicateBases(t *testing.T) {
	for _, gr := range multiExpBackends(t) {
		t.Run(gr.Name(), func(t *testing.T) {
			r := randutil.NewReader(99)
			h := gr.HashToElement("hybriddkg/multiexp-dup", []byte("h"))
			var bases []Element
			var exps []*big.Int
			for i := 0; i < 12; i++ {
				if i%2 == 0 {
					bases = append(bases, gr.Generator())
				} else {
					bases = append(bases, h)
				}
				e, err := gr.RandScalar(r)
				if err != nil {
					t.Fatal(err)
				}
				exps = append(exps, e)
			}
			// Generator exponents summing to ≡ 0 (mod q) must cancel.
			bases = append(bases, gr.Generator(), gr.Generator())
			half := new(big.Int).Rsh(gr.Q(), 1)
			exps = append(exps, new(big.Int).Set(half), new(big.Int).Sub(gr.Q(), half))
			want := naiveMultiExp(gr, bases, exps)
			if got := gr.MultiExp(bases, exps); !got.Equal(want) {
				t.Fatal("MultiExp mismatch with duplicate bases")
			}
			if got := gr.VarTimeMultiExp(bases, exps); !got.Equal(want) {
				t.Fatal("VarTimeMultiExp mismatch with duplicate bases")
			}
		})
	}
}

// TestMultiExpSmallExponents covers the short-exponent regime the
// batched point checks live in (node indices and 64-bit blinders).
func TestMultiExpSmallExponents(t *testing.T) {
	for _, gr := range multiExpBackends(t) {
		t.Run(gr.Name(), func(t *testing.T) {
			r := randutil.NewReader(7)
			for _, k := range []int{2, 5, 40} {
				bases := make([]Element, k)
				exps := make([]*big.Int, k)
				for i := 0; i < k; i++ {
					s, err := gr.RandScalar(r)
					if err != nil {
						t.Fatal(err)
					}
					bases[i] = gr.GExp(s)
					exps[i] = big.NewInt(int64(i*i + 1))
				}
				// Mix in one 64-bit blinder-sized exponent.
				exps[0] = new(big.Int).SetUint64(0xfedcba9876543210)
				want := naiveMultiExp(gr, bases, exps)
				if got := gr.VarTimeMultiExp(bases, exps); !got.Equal(want) {
					t.Fatalf("k=%d: VarTimeMultiExp mismatch on small exponents", k)
				}
			}
		})
	}
}

// TestMultiExpPrecomputedBases checks that Precompute'd bases (comb
// tables on the curve, fixed-base windows on Z_p*) give identical
// results through VarTimeMultiExp, across exponent widths, alone and
// mixed with ad-hoc terms on both the Straus and Pippenger branches.
func TestMultiExpPrecomputedBases(t *testing.T) {
	for _, gr := range multiExpBackends(t) {
		t.Run(gr.Name(), func(t *testing.T) {
			r := randutil.NewReader(31)
			q := gr.Q()
			pk := gr.HashToElement("hybriddkg/multiexp-pre", []byte("pk"))
			pk2 := gr.HashToElement("hybriddkg/multiexp-pre", []byte("pk2"))
			gr.Precompute(pk)
			gr.Precompute(pk)            // idempotent
			gr.Precompute(gr.Identity()) // must be a no-op, not a panic
			gr.Precompute(pk2)
			wide, err := gr.RandScalar(r)
			if err != nil {
				t.Fatal(err)
			}
			exact128 := new(big.Int).Lsh(big.NewInt(1), 127)
			cases := [][]*big.Int{
				{wide, wide},
				{new(big.Int).Sub(q, big.NewInt(1)), big.NewInt(1)},
				{exact128, new(big.Int).Sub(exact128, big.NewInt(1))},
				{big.NewInt(0), wide},
			}
			bases := []Element{pk, pk2}
			for ci, exps := range cases {
				want := naiveMultiExp(gr, bases, exps)
				if got := gr.VarTimeMultiExp(bases, exps); !got.Equal(want) {
					t.Fatalf("case %d: mismatch on precomputed-only terms", ci)
				}
			}
			// Mixed with enough ad-hoc terms to cross into Pippenger,
			// where precomputed terms are folded in separately.
			for _, k := range []int{6, 40} {
				mb, me := randomTerms(t, gr, k, uint64(k)*13+3)
				mb = append(mb, pk, pk2)
				e2, err := gr.RandScalar(r)
				if err != nil {
					t.Fatal(err)
				}
				me = append(me, wide, e2)
				want := naiveMultiExp(gr, mb, me)
				if got := gr.VarTimeMultiExp(mb, me); !got.Equal(want) {
					t.Fatalf("k=%d: mismatch mixing precomputed and ad-hoc terms", k)
				}
			}
		})
	}
}

// tabled reports whether base has a Precompute'd table in gr's backend,
// and fixedBases counts the tables.
func tabled(gr *Group, base Element) bool {
	switch b := gr.Backend().(type) {
	case *P256Backend:
		return b.comb(b.el(base)) != nil
	case *ModP:
		_, ok := b.tabs.get(string(b.el(base).v.Bytes()))
		return ok
	}
	return false
}

func fixedBases(gr *Group) int {
	switch b := gr.Backend().(type) {
	case *P256Backend:
		b.combs.mu.RLock()
		defer b.combs.mu.RUnlock()
		return len(b.combs.m)
	case *ModP:
		b.tabs.mu.RLock()
		defer b.tabs.mu.RUnlock()
		return len(b.tabs.m)
	}
	return -1
}

// TestPrecomputeCacheBounded: a backend keeps at most maxFixedBases
// Precompute'd tables, evicting the oldest first; an evicted base gives
// the same VarTimeMultiExp result, and Precompute builds its table
// again.
func TestPrecomputeCacheBounded(t *testing.T) {
	for _, gr := range []*Group{Test256(), P256()} {
		t.Run(gr.Name(), func(t *testing.T) {
			base := func(i int) Element {
				return gr.HashToElement("hybriddkg/fixed-bases", []byte(fmt.Sprint(i)))
			}
			first := base(-1)
			e, err := gr.RandScalar(randutil.NewReader(5))
			if err != nil {
				t.Fatal(err)
			}
			bases, exps := []Element{gr.Generator(), first}, []*big.Int{gr.NegQ(e), e}
			want := naiveMultiExp(gr, bases, exps)
			gr.Precompute(first)
			if !tabled(gr, first) || !gr.VarTimeMultiExp(bases, exps).Equal(want) {
				t.Fatal("tabled base: no table or a wrong result")
			}
			for i := 0; i < maxFixedBases; i++ {
				gr.Precompute(base(i))
				if n := fixedBases(gr); n > maxFixedBases {
					t.Fatalf("%d tables after %d bases, cap %d", n, i+2, maxFixedBases)
				}
			}
			if n := fixedBases(gr); n != maxFixedBases {
				t.Fatalf("%d tables, want the cap %d", n, maxFixedBases)
			}
			if tabled(gr, first) || !tabled(gr, base(0)) {
				t.Fatal("eviction did not take the oldest table first")
			}
			if !gr.VarTimeMultiExp(bases, exps).Equal(want) {
				t.Fatal("evicted base: wrong result")
			}
			gr.Precompute(first)
			if !tabled(gr, first) || tabled(gr, base(0)) || !gr.VarTimeMultiExp(bases, exps).Equal(want) {
				t.Fatal("re-Precompute did not rebuild the evicted table")
			}
		})
	}
}

// TestConcurrentPrecomputeMultiExp: Precompute and VarTimeMultiExp from
// several goroutines at once, with enough fresh bases to keep evicting,
// agree with the ladder reference (run under -race in CI).
func TestConcurrentPrecomputeMultiExp(t *testing.T) {
	for _, gr := range []*Group{Test256(), P256()} {
		t.Run(gr.Name(), func(t *testing.T) {
			const workers, perWorker = 4, maxFixedBases/4 + 8
			hot, exps := randomTerms(t, gr, 4, 9)
			want := naiveMultiExp(gr, hot, exps)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						gr.Precompute(gr.HashToElement("hybriddkg/fixed-bases-race", []byte(fmt.Sprint(w, i))))
						gr.Precompute(hot[(w+i)%len(hot)])
						if !gr.VarTimeMultiExp(hot, exps).Equal(want) {
							t.Errorf("worker %d, base %d: VarTimeMultiExp mismatch", w, i)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if n := fixedBases(gr); n > maxFixedBases {
				t.Fatalf("%d tables, cap %d", n, maxFixedBases)
			}
		})
	}
}

// TestMultiExpMismatchPanics pins the programming-error contract.
func TestMultiExpMismatchPanics(t *testing.T) {
	gr := Test256()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	gr.VarTimeMultiExp([]Element{gr.Generator()}, nil)
}

// FuzzMultiExp asserts fast-path equivalence with the naive reference
// on fuzzer-chosen term counts and exponents, over both backend
// families.
func FuzzMultiExp(f *testing.F) {
	f.Add(uint64(1), []byte{1, 0, 255}, false)
	f.Add(uint64(42), []byte{7, 7, 7, 7, 7, 7, 7, 7, 7}, true)
	f.Add(uint64(3), []byte{0}, false)
	f.Fuzz(func(t *testing.T, seed uint64, expBytes []byte, p256 bool) {
		gr := Test256()
		if p256 {
			gr = P256()
		}
		if len(expBytes) > 64 {
			expBytes = expBytes[:64]
		}
		// Derive k terms from the fuzz input: exponents are consecutive
		// chunks (biased toward boundary values), bases generator
		// multiples and hashed points.
		k := len(expBytes)/2 + 1
		r := randutil.NewReader(seed)
		bases := make([]Element, k)
		exps := make([]*big.Int, k)
		qm1 := new(big.Int).Sub(gr.Q(), big.NewInt(1))
		for i := 0; i < k; i++ {
			chunk := expBytes[i*len(expBytes)/k : (i+1)*len(expBytes)/k]
			e := new(big.Int).SetBytes(chunk)
			switch {
			case len(chunk) > 0 && chunk[0] == 255:
				e = new(big.Int).Set(qm1)
			case len(chunk) > 0 && chunk[0] == 254:
				e = new(big.Int).Set(gr.Q())
			}
			exps[i] = e
			if i%2 == 0 {
				bases[i] = gr.Generator()
			} else {
				s, err := gr.RandScalar(r)
				if err != nil {
					t.Skip()
				}
				bases[i] = gr.GExp(s)
			}
		}
		want := naiveMultiExp(gr, bases, exps)
		if got := gr.VarTimeMultiExp(bases, exps); !got.Equal(want) {
			t.Fatalf("VarTimeMultiExp diverges from naive reference (k=%d)", k)
		}
		if got := gr.MultiExp(bases, exps); !got.Equal(want) {
			t.Fatalf("MultiExp diverges from naive reference (k=%d)", k)
		}
	})
}

// wnafDigitsBig is the big.Int recoder wnafDigits replaced, kept as its
// oracle: subtract the signed low-window digit whenever the value is
// odd, then shift right one bit.
func wnafDigitsBig(e *big.Int, w uint) []int8 {
	digits := make([]int8, e.BitLen()+1)
	v := new(big.Int).Set(e)
	mask := int64(1<<w - 1)
	half := int64(1 << (w - 1))
	for i := 0; v.Sign() > 0; i++ {
		if v.Bit(0) == 1 {
			d := int64(v.Bits()[0]) & mask
			if d >= half {
				d -= mask + 1
			}
			digits[i] = int8(d)
			v.Sub(v, big.NewInt(d))
		}
		v.Rsh(v, 1)
	}
	return digits
}

// FuzzWnafDigits: the limb recoder yields the big.Int recoder's digits
// for every width, the digits are a valid width-w NAF, and Σ dᵢ·2ⁱ = e.
func FuzzWnafDigits(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(P256().Q().Bytes())
	f.Add(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)).Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 32 {
			raw = raw[:32]
		}
		e := new(big.Int).SetBytes(raw)
		for w := uint(2); w <= 7; w++ {
			got, want := wnafDigits(e, w), wnafDigitsBig(e, w)
			if len(got) != len(want) {
				t.Fatalf("w=%d: %d digits, oracle %d", w, len(got), len(want))
			}
			sum := new(big.Int)
			last := -int(w)
			for i := len(got) - 1; i >= 0; i-- {
				d := got[i]
				if d != want[i] {
					t.Fatalf("w=%d e=%x: digit %d is %d, oracle %d", w, e, i, d, want[i])
				}
				sum.Lsh(sum, 1)
				sum.Add(sum, big.NewInt(int64(d)))
				if d == 0 {
					continue
				}
				if d%2 == 0 || d >= 1<<(w-1) || d <= -(1<<(w-1)) {
					t.Fatalf("w=%d: digit %d = %d is not odd and below 2^(w-1)", w, i, d)
				}
				if last-i < int(w) && last >= 0 {
					t.Fatalf("w=%d: nonzero digits %d and %d closer than w", w, last, i)
				}
				last = i
			}
			if sum.Cmp(e) != 0 {
				t.Fatalf("w=%d: digits sum to %x, want %x", w, sum, e)
			}
		}
	})
}
