package commit

import (
	"math/big"
	"testing"
	"testing/quick"

	"hybriddkg/internal/group"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
)

func testSetup(t *testing.T, seed uint64, deg int) (*group.Group, *poly.BiPoly, *Matrix) {
	t.Helper()
	gr := group.Test256()
	r := randutil.NewReader(seed)
	secret, err := gr.RandScalar(r)
	if err != nil {
		t.Fatal(err)
	}
	f, err := poly.NewRandomSymmetric(gr.Q(), secret, deg, r)
	if err != nil {
		t.Fatal(err)
	}
	return gr, f, NewMatrix(gr, f)
}

func TestVerifyPolyAcceptsHonestRows(t *testing.T) {
	_, f, m := testSetup(t, 1, 3)
	for i := int64(1); i <= 8; i++ {
		if !m.VerifyPoly(i, f.Row(i)) {
			t.Fatalf("verify-poly rejected honest row %d", i)
		}
	}
}

func TestVerifyPolyRejects(t *testing.T) {
	gr, f, m := testSetup(t, 2, 3)
	row := f.Row(2)
	if m.VerifyPoly(1, row) {
		t.Error("verify-poly accepted row for wrong index")
	}
	// Tampered coefficient.
	coeffs := row.Coeffs()
	coeffs[1] = gr.AddQ(coeffs[1], big.NewInt(1))
	bad, err := poly.FromCoeffs(gr.Q(), coeffs)
	if err != nil {
		t.Fatal(err)
	}
	if m.VerifyPoly(2, bad) {
		t.Error("verify-poly accepted tampered row")
	}
	// Wrong degree.
	short, err := poly.FromCoeffs(gr.Q(), coeffs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if m.VerifyPoly(2, short) {
		t.Error("verify-poly accepted wrong-degree polynomial")
	}
	if m.VerifyPoly(2, nil) {
		t.Error("verify-poly accepted nil")
	}
}

func TestVerifyPointAcceptsHonest(t *testing.T) {
	_, f, m := testSetup(t, 3, 4)
	// α = f(mIdx, i) must verify for node i receiving from node mIdx.
	for i := int64(1); i <= 6; i++ {
		for mIdx := int64(1); mIdx <= 6; mIdx++ {
			if !m.VerifyPoint(i, mIdx, f.Eval(mIdx, i)) {
				t.Fatalf("verify-point rejected honest point (%d,%d)", mIdx, i)
			}
		}
	}
}

func TestVerifyPointRejects(t *testing.T) {
	gr, f, m := testSetup(t, 4, 4)
	good := f.Eval(3, 2)
	if m.VerifyPoint(2, 3, gr.AddQ(good, big.NewInt(1))) {
		t.Error("verify-point accepted tampered value")
	}
	if m.VerifyPoint(3, 2, good) != m.VerifyPoint(2, 3, good) {
		t.Error("symmetric matrix should verify symmetric points identically")
	}
	if m.VerifyPoint(2, 3, nil) {
		t.Error("verify-point accepted nil")
	}
	if m.VerifyPoint(2, 3, gr.Q()) {
		t.Error("verify-point accepted out-of-range scalar")
	}
}

func TestVerifyShare(t *testing.T) {
	gr, f, m := testSetup(t, 5, 3)
	for i := int64(1); i <= 5; i++ {
		share := f.Eval(i, 0)
		if !m.VerifyShare(i, share) {
			t.Fatalf("VerifyShare rejected honest share %d", i)
		}
		if m.VerifyShare(i, gr.AddQ(share, big.NewInt(1))) {
			t.Fatalf("VerifyShare accepted bad share %d", i)
		}
		if !m.SharePublic(i).Equal(gr.GExp(share)) {
			t.Fatalf("SharePublic(%d) mismatch", i)
		}
	}
}

func TestPublicKey(t *testing.T) {
	gr, f, m := testSetup(t, 6, 3)
	if !m.PublicKey().Equal(gr.GExp(f.Secret())) {
		t.Error("PublicKey != g^secret")
	}
}

// TestMulHomomorphism: Commit(f)·Commit(g) == Commit(f+g) — the DKG
// share-summation invariant in the exponent.
// TestMulHomomorphism checks that the product of two matrices commits
// to the sum of their polynomials.
func TestMulHomomorphism(t *testing.T) {
	gr, f1, m1 := testSetup(t, 7, 3)
	r := randutil.NewReader(77)
	s2, _ := gr.RandScalar(r)
	f2, err := poly.NewRandomSymmetric(gr.Q(), s2, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMatrix(gr, f2)
	prod, err := Product([]*Matrix{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	// Shares of the sum must verify against the product commitment.
	for i := int64(1); i <= 5; i++ {
		sum := gr.AddQ(f1.Eval(i, 0), f2.Eval(i, 0))
		if !prod.VerifyShare(i, sum) {
			t.Fatalf("summed share %d does not verify against product commitment", i)
		}
	}
	pk := gr.Mul(m1.PublicKey(), m2.PublicKey())
	if !prod.PublicKey().Equal(pk) {
		t.Error("product public key mismatch")
	}
}

// TestMulMismatch checks that Product refuses matrices of different
// degrees and an empty list.
func TestMulMismatch(t *testing.T) {
	_, _, m3 := testSetup(t, 8, 3)
	_, _, m4 := testSetup(t, 9, 4)
	if _, err := Product([]*Matrix{m3, m4}); err != ErrDimensionMismatch {
		t.Errorf("Product with different degrees: err = %v, want %v", err, ErrDimensionMismatch)
	}
	if _, err := Product(nil); err != ErrEmptyCombine {
		t.Errorf("Product of nothing: err = %v, want %v", err, ErrEmptyCombine)
	}
}

// TestProductOfDealers checks Product over several dealers on both
// backend families against the commitment to the summed polynomial,
// entry by entry, and with entries that cancel to the identity.
func TestProductOfDealers(t *testing.T) {
	for _, gr := range []*group.Group{group.Test256(), group.P256()} {
		t.Run(gr.Name(), func(t *testing.T) {
			const deg, dealers = 2, 4
			r := randutil.NewReader(31)
			mats := make([]*Matrix, dealers)
			rows := make([]*poly.Poly, 6)
			for d := range mats {
				s, _ := gr.RandScalar(r)
				f, err := poly.NewRandomSymmetric(gr.Q(), s, deg, r)
				if err != nil {
					t.Fatal(err)
				}
				mats[d] = NewMatrix(gr, f)
				for i := range rows {
					row := f.Row(int64(i))
					if d == 0 {
						rows[i] = row
					} else if rows[i], err = rows[i].Add(row); err != nil {
						t.Fatal(err)
					}
				}
			}
			prod, err := Product(mats)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i < int64(len(rows)); i++ {
				if !prod.VerifyPoly(i, rows[i]) {
					t.Fatalf("summed row %d does not verify against the product", i)
				}
			}
			for j := 0; j <= deg; j++ {
				for l := 0; l <= deg; l++ {
					want := gr.Identity()
					for _, m := range mats {
						want = gr.Mul(want, m.Entry(j, l))
					}
					if !prod.Entry(j, l).Equal(want) {
						t.Fatalf("entry (%d,%d) differs from the pairwise product", j, l)
					}
				}
			}

			// A dealer whose (0,0) and (1,2) entries invert the first
			// dealer's: those entries of the product are the identity.
			c := make([][]group.Element, deg+1)
			for j := range c {
				c[j] = make([]group.Element, deg+1)
				for l := range c[j] {
					c[j][l] = gr.Generator()
				}
			}
			for _, jl := range [][2]int{{0, 0}, {1, 2}, {2, 1}} {
				inv, err := gr.Inv(mats[0].Entry(jl[0], jl[1]))
				if err != nil {
					t.Fatal(err)
				}
				c[jl[0]][jl[1]] = inv
			}
			anti := &Matrix{gr: gr, t: deg, c: c}
			cancel, err := Product([]*Matrix{mats[0], anti})
			if err != nil {
				t.Fatal(err)
			}
			for _, jl := range [][2]int{{0, 0}, {1, 2}, {2, 1}} {
				if !cancel.Entry(jl[0], jl[1]).Equal(gr.Identity()) {
					t.Fatalf("entry %v did not cancel to the identity", jl)
				}
			}
			want := gr.Mul(mats[0].Entry(0, 1), gr.Generator())
			if !cancel.Entry(0, 1).Equal(want) || !cancel.Entry(1, 0).Equal(want) {
				t.Fatal("entry (0,1) of the cancelling product is wrong")
			}
			if _, err := cancel.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMatrixMarshalRoundTrip(t *testing.T) {
	gr, _, m := testSetup(t, 10, 4)
	enc, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := UnmarshalMatrix(gr, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(dec) {
		t.Error("matrix round-trip mismatch")
	}
	if m.Hash() != dec.Hash() {
		t.Error("hash mismatch after round trip")
	}
}

func TestMatrixUnmarshalRejects(t *testing.T) {
	gr, _, m := testSetup(t, 11, 2)
	enc, _ := m.MarshalBinary()
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "truncated", data: enc[:len(enc)-3]},
		{name: "trailing", data: append(append([]byte{}, enc...), 0x01)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalMatrix(gr, tt.data); err == nil {
				t.Error("UnmarshalMatrix accepted corrupt encoding")
			}
		})
	}
	// Entry not in subgroup: flip a byte inside the first element body.
	bad := append([]byte{}, enc...)
	bad[9] ^= 0xff
	if _, err := UnmarshalMatrix(gr, bad); err == nil {
		t.Error("UnmarshalMatrix accepted non-subgroup entry")
	}
}

func TestVectorBasics(t *testing.T) {
	gr := group.Test256()
	r := randutil.NewReader(12)
	h, err := poly.NewRandom(gr.Q(), 3, r)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVector(gr, h)
	if v.T() != 3 {
		t.Fatalf("T = %d", v.T())
	}
	if !v.PublicKey().Equal(gr.GExp(h.Secret())) {
		t.Error("vector public key mismatch")
	}
	for i := int64(1); i <= 6; i++ {
		if !v.VerifyShare(i, h.EvalInt(i)) {
			t.Fatalf("vector rejected honest share %d", i)
		}
		if v.VerifyShare(i, gr.AddQ(h.EvalInt(i), big.NewInt(1))) {
			t.Fatalf("vector accepted bad share %d", i)
		}
		if !v.Eval(i).Equal(gr.GExp(h.EvalInt(i))) {
			t.Fatalf("vector Eval(%d) mismatch", i)
		}
	}
}

func TestVectorMulAndMarshal(t *testing.T) {
	gr := group.Test256()
	r := randutil.NewReader(13)
	h1, _ := poly.NewRandom(gr.Q(), 3, r)
	h2, _ := poly.NewRandom(gr.Q(), 3, r)
	v1, v2 := NewVector(gr, h1), NewVector(gr, h2)
	prod, err := v1.Mul(v2)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := h1.Add(h2)
	if !prod.Equal(NewVector(gr, sum)) {
		t.Error("vector Mul is not homomorphic")
	}
	enc, err := prod.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := UnmarshalVector(gr, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(dec) {
		t.Error("vector round-trip mismatch")
	}
	if _, err := UnmarshalVector(gr, enc[:5]); err == nil {
		t.Error("UnmarshalVector accepted truncated data")
	}
	h3, _ := poly.NewRandom(gr.Q(), 2, r)
	if _, err := v1.Mul(NewVector(gr, h3)); err == nil {
		t.Error("vector Mul with degree mismatch succeeded")
	}
}

func TestColumn0MatchesShares(t *testing.T) {
	_, f, m := testSetup(t, 14, 3)
	col := m.Column0()
	for i := int64(1); i <= 5; i++ {
		if !col.VerifyShare(i, f.Eval(i, 0)) {
			t.Fatalf("Column0 rejected share %d", i)
		}
	}
	if !col.PublicKey().Equal(m.PublicKey()) {
		t.Error("Column0 public key mismatch")
	}
}

// TestCombineColumn0Renewal reproduces the share-renewal commitment
// update (§5.2): resharing old shares through fresh bivariate
// polynomials and combining with Lagrange-at-0 coefficients yields a
// vector commitment to a fresh sharing of the same secret.
func TestCombineColumn0Renewal(t *testing.T) {
	gr := group.Test256()
	r := randutil.NewReader(15)
	const deg = 2
	secret, _ := gr.RandScalar(r)
	orig, err := poly.NewRandomWithConstant(gr.Q(), secret, deg, r)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1..3 (t+1 of them) reshare their old shares orig(d).
	dealers := []int64{1, 2, 3}
	mats := make([]*Matrix, len(dealers))
	reshares := make([]*poly.BiPoly, len(dealers))
	for k, d := range dealers {
		f, err := poly.NewRandomSymmetric(gr.Q(), orig.EvalInt(d), deg, r)
		if err != nil {
			t.Fatal(err)
		}
		reshares[k] = f
		mats[k] = NewMatrix(gr, f)
	}
	lambdas, err := poly.LagrangeCoeffsAt(gr.Q(), dealers, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CombineColumn0(mats, lambdas)
	if err != nil {
		t.Fatal(err)
	}
	// Same public key as before renewal.
	if !v.PublicKey().Equal(gr.GExp(secret)) {
		t.Error("renewed commitment changes public key")
	}
	// Node i's renewed share Σ_d λ_d f_d(i,0) verifies against V.
	for i := int64(1); i <= 5; i++ {
		renewed := new(big.Int)
		for k := range dealers {
			renewed.Add(renewed, new(big.Int).Mul(lambdas[k], reshares[k].Eval(i, 0)))
		}
		renewed.Mod(renewed, gr.Q())
		if !v.VerifyShare(i, renewed) {
			t.Fatalf("renewed share %d does not verify", i)
		}
	}
}

func TestCombineColumn0Errors(t *testing.T) {
	_, _, m := testSetup(t, 16, 2)
	if _, err := CombineColumn0(nil, nil); err == nil {
		t.Error("empty combine succeeded")
	}
	if _, err := CombineColumn0([]*Matrix{m}, nil); err == nil {
		t.Error("mismatched lambda count succeeded")
	}
	_, _, m4 := testSetup(t, 17, 4)
	if _, err := CombineColumn0([]*Matrix{m, m4}, []*big.Int{big.NewInt(1), big.NewInt(1)}); err == nil {
		t.Error("mixed-degree combine succeeded")
	}
}

// TestQuickVerifyPointSoundness: random wrong values never verify.
func TestQuickVerifyPointSoundness(t *testing.T) {
	gr, f, m := testSetup(t, 18, 2)
	r := randutil.NewReader(19)
	check := func(iRaw, mRaw uint8) bool {
		i := int64(iRaw%16) + 1
		mi := int64(mRaw%16) + 1
		good := f.Eval(mi, i)
		wrong, _ := gr.RandScalar(r)
		if wrong.Cmp(good) == 0 {
			return true // astronomically unlikely; skip
		}
		return m.VerifyPoint(i, mi, good) && !m.VerifyPoint(i, mi, wrong)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPedersenVector(t *testing.T) {
	gr := group.Test256()
	h := PedersenH(gr)
	if !gr.IsElement(h) {
		t.Fatal("Pedersen h not in subgroup")
	}
	r := randutil.NewReader(20)
	a, _ := poly.NewRandom(gr.Q(), 3, r)
	b, _ := poly.NewRandom(gr.Q(), 3, r)
	pv, err := NewPedersenVector(gr, h, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if pv.T() != 3 {
		t.Fatalf("T = %d", pv.T())
	}
	for i := int64(1); i <= 5; i++ {
		if !pv.VerifyShare(i, a.EvalInt(i), b.EvalInt(i)) {
			t.Fatalf("Pedersen rejected honest opening %d", i)
		}
		if pv.VerifyShare(i, gr.AddQ(a.EvalInt(i), big.NewInt(1)), b.EvalInt(i)) {
			t.Fatalf("Pedersen accepted bad share %d", i)
		}
		if pv.VerifyShare(i, a.EvalInt(i), gr.AddQ(b.EvalInt(i), big.NewInt(1))) {
			t.Fatalf("Pedersen accepted bad blinding %d", i)
		}
	}
	if pv.VerifyShare(1, nil, big.NewInt(0)) || pv.VerifyShare(1, big.NewInt(0), nil) {
		t.Error("Pedersen accepted nil opening")
	}
	mismA, _ := poly.NewRandom(gr.Q(), 2, r)
	if _, err := NewPedersenVector(gr, h, mismA, b); err == nil {
		t.Error("Pedersen accepted mismatched degrees")
	}
	if enc, err := pv.MarshalBinary(); err != nil || len(enc) == 0 {
		t.Error("Pedersen MarshalBinary failed")
	}
	if pv.Entry(0) == nil {
		t.Error("Entry returned nil")
	}
}

// TestMatrixEntryStability: entries survive a round of backend
// operations untouched (elements are immutable, so Entry may share).
func TestMatrixEntryStability(t *testing.T) {
	gr, _, m := testSetup(t, 21, 2)
	e := m.Entry(0, 0)
	_ = gr.Mul(e, gr.Generator())
	_ = gr.Exp(e, big.NewInt(7))
	if !m.Entry(0, 0).Equal(e) {
		t.Error("Entry changed under backend operations")
	}
}
