package group

// The backend conformance suite: every registered parameter set is run
// through the same battery of group axioms, encoding round-trips and
// hash-to-group checks, so a new backend inherits the whole battery by
// appearing in Names(). Protocol-level conformance (Pedersen binding,
// full VSS/DKG/threshold-sig runs per backend) lives in the root
// package's conformance_test.go.

import (
	"math/big"
	"testing"

	"hybriddkg/internal/randutil"
)

func TestBackendConformance(t *testing.T) {
	for _, name := range Names() {
		gr, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			t.Run("axioms", func(t *testing.T) { conformAxioms(t, gr) })
			t.Run("horner", func(t *testing.T) { conformHorner(t, gr) })
			t.Run("encoding", func(t *testing.T) { conformEncoding(t, gr) })
			t.Run("hash-to-element", func(t *testing.T) { conformHashToElement(t, gr) })
			t.Run("scalars", func(t *testing.T) { conformScalars(t, gr) })
		})
	}
}

// conformAxioms checks the group laws and the exponent homomorphisms
// every Feldman/Pedersen verification equation rests on.
func conformAxioms(t *testing.T, gr *Group) {
	r := randutil.NewReader(1000 + uint64(gr.SecurityBits()))
	id := gr.Identity()
	g := gr.Generator()
	if !gr.IsElement(g) || !gr.IsElement(id) {
		t.Fatal("generator or identity not an element")
	}
	if g.Equal(id) {
		t.Fatal("generator equals identity")
	}
	for i := 0; i < 12; i++ {
		a, _ := gr.RandScalar(r)
		b, _ := gr.RandScalar(r)
		x, y := gr.GExp(a), gr.GExp(b)
		// Commutativity and identity.
		if !gr.Mul(x, y).Equal(gr.Mul(y, x)) {
			t.Fatal("Mul not commutative")
		}
		if !gr.Mul(x, id).Equal(x) {
			t.Fatal("x · 1 != x")
		}
		// Associativity.
		z := gr.GExp(gr.AddQ(a, b))
		if !gr.Mul(gr.Mul(x, y), z).Equal(gr.Mul(x, gr.Mul(y, z))) {
			t.Fatal("Mul not associative")
		}
		// Inverse.
		xi, err := gr.Inv(x)
		if err != nil {
			t.Fatalf("Inv: %v", err)
		}
		if !gr.Mul(x, xi).Equal(id) {
			t.Fatal("x · x⁻¹ != 1")
		}
		// Division.
		d, err := gr.Div(gr.Mul(x, y), y)
		if err != nil {
			t.Fatalf("Div: %v", err)
		}
		if !d.Equal(x) {
			t.Fatal("(xy)/y != x")
		}
		// Exponent homomorphisms.
		if !gr.GExp(gr.AddQ(a, b)).Equal(gr.Mul(x, y)) {
			t.Fatal("g^(a+b) != g^a · g^b")
		}
		if !gr.GExp(gr.MulQ(a, b)).Equal(gr.Exp(x, b)) {
			t.Fatal("g^(ab) != (g^a)^b")
		}
		// Order: x^q = 1, x^0 = 1.
		if !gr.Exp(x, gr.Q()).Equal(id) {
			t.Fatal("x^q != 1")
		}
		if !gr.Exp(x, new(big.Int)).Equal(id) {
			t.Fatal("x^0 != 1")
		}
	}
	// ExpInt agrees with Exp for the small Horner exponents.
	base := gr.GExp(big.NewInt(1234567))
	for k := int64(0); k < 8; k++ {
		if !gr.ExpInt(base, k).Equal(gr.Exp(base, big.NewInt(k))) {
			t.Fatalf("ExpInt(%d) mismatch", k)
		}
	}
}

// conformHorner cross-checks the backend's fused Horner chain against
// the generic per-step construction, including identity entries, the
// zero index, and chains of length one.
func conformHorner(t *testing.T, gr *Group) {
	r := randutil.NewReader(4000 + uint64(gr.SecurityBits()))
	var chains [][]Element
	for trial := 0; trial < 6; trial++ {
		n := 1 + trial // chain length 1..6
		v := make([]Element, n)
		for l := range v {
			e, _ := gr.RandScalar(r)
			v[l] = gr.GExp(e)
		}
		if trial == 4 {
			v[0] = gr.Identity() // identity entries must be absorbed
		}
		for _, x := range []int64{0, 1, 2, 3, 7, 16, 100} {
			want := v[n-1]
			for l := n - 2; l >= 0; l-- {
				want = gr.Mul(gr.Exp(want, big.NewInt(x)), v[l])
			}
			if got := gr.Horner(v, x); !got.Equal(want) {
				t.Fatalf("Horner(len=%d, x=%d) mismatch", n, x)
			}
		}
		chains = append(chains, v)
	}

	// Batches must match chain-by-chain evaluation, including chains
	// that evaluate to the identity and a batch of one.
	e, _ := gr.RandScalar(r)
	b := gr.GExp(e)
	for _, x := range []int64{0, 1, 3, 16} {
		bx, err := gr.Inv(gr.Exp(b, big.NewInt(x)))
		if err != nil {
			t.Fatal(err)
		}
		cancel := []Element{bx, b} // b^x · b^−x
		batch := append(append([][]Element{}, chains...), cancel, []Element{gr.Identity()})
		got := gr.HornerBatch(batch, x)
		if len(got) != len(batch) {
			t.Fatalf("HornerBatch returned %d values for %d chains", len(got), len(batch))
		}
		for c, v := range batch {
			if !got[c].Equal(gr.Horner(v, x)) {
				t.Fatalf("HornerBatch chain %d at x=%d differs from Horner", c, x)
			}
		}
		for _, c := range got[len(got)-2:] {
			if !c.Equal(gr.Identity()) {
				t.Fatalf("identity chain at x=%d evaluated to %v", x, c)
			}
		}
		if one := gr.HornerBatch(chains[2:3], x); len(one) != 1 || !one[0].Equal(gr.Horner(chains[2], x)) {
			t.Fatalf("batch of one at x=%d differs from Horner", x)
		}
	}
}

// conformEncoding checks encode/decode round-trips (including the
// identity and generator) and rejection of malformed encodings.
func conformEncoding(t *testing.T, gr *Group) {
	r := randutil.NewReader(2000 + uint64(gr.SecurityBits()))
	cases := []Element{gr.Generator(), gr.Identity()}
	for i := 0; i < 8; i++ {
		e, _ := gr.RandScalar(r)
		cases = append(cases, gr.GExp(e))
	}
	for i, e := range cases {
		enc := gr.EncodeElement(e)
		if len(enc) == 0 || len(enc) > gr.ElementLen() {
			t.Fatalf("case %d: encoding length %d outside (0, %d]", i, len(enc), gr.ElementLen())
		}
		dec, err := gr.DecodeElement(enc)
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if !dec.Equal(e) {
			t.Fatalf("case %d: decode(encode(e)) != e", i)
		}
		if !gr.IsElement(dec) {
			t.Fatalf("case %d: decoded value fails IsElement", i)
		}
	}
	// Garbage must be rejected, not decoded into something.
	for _, bad := range [][]byte{nil, {0xff}, make([]byte, gr.ElementLen()+7)} {
		if _, err := gr.DecodeElement(bad); err == nil {
			t.Fatalf("Decode accepted garbage %x", bad)
		}
	}
}

// conformHashToElement checks determinism, domain separation, and
// membership of hash-to-group outputs.
func conformHashToElement(t *testing.T, gr *Group) {
	a := gr.HashToElement("conf", []byte("in"))
	b := gr.HashToElement("conf", []byte("in"))
	if !a.Equal(b) {
		t.Fatal("HashToElement not deterministic")
	}
	if a.Equal(gr.HashToElement("conf", []byte("other"))) {
		t.Fatal("different inputs map to the same element")
	}
	if a.Equal(gr.HashToElement("other", []byte("in"))) {
		t.Fatal("different domains map to the same element")
	}
	if !gr.IsElement(a) {
		t.Fatal("hash output not a group element")
	}
	if a.Equal(gr.Identity()) {
		t.Fatal("hash output is the identity")
	}
	// Round-trips like any other element.
	dec, err := gr.DecodeElement(gr.EncodeElement(a))
	if err != nil || !dec.Equal(a) {
		t.Fatalf("hash output does not round-trip: %v", err)
	}
}

// conformScalars spot-checks that the shared scalar layer is wired to
// the backend's q.
func conformScalars(t *testing.T, gr *Group) {
	if gr.Q().Cmp(gr.Backend().Q()) != 0 {
		t.Fatal("Group.Q != Backend.Q")
	}
	if !gr.Q().ProbablyPrime(16) {
		t.Fatal("group order not prime")
	}
	r := randutil.NewReader(3000)
	s, err := gr.RandScalar(r)
	if err != nil {
		t.Fatal(err)
	}
	if !gr.IsScalar(s) {
		t.Fatal("RandScalar out of range")
	}
	h := gr.HashToScalar("conf", []byte("x"))
	if !gr.IsScalar(h) {
		t.Fatal("HashToScalar out of range")
	}
}
