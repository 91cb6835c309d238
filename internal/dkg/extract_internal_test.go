package dkg

import (
	"math/big"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/vss"
)

// TestExtractRows checks the map itself against its definition, on both
// backends: row 0 is SumCombiner's share and V, and row p is the share
// and commitment of the polynomial Σ_d d^p·f_d(x, 0), at node self and
// in the exponent.
func TestExtractRows(t *testing.T) {
	const thr, self = 2, 3
	q := []msg.NodeID{1, 2, 4, 6, 7}
	for _, gr := range []*group.Group{group.Test256(), group.P256()} {
		rng := randutil.NewReader(41)
		events := make(map[msg.NodeID]vss.SharedEvent, len(q))
		polys := make(map[msg.NodeID]*poly.BiPoly, len(q))
		for _, d := range q {
			secret, err := gr.RandScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			f, err := poly.NewRandomSymmetric(gr.Q(), secret, thr, rng)
			if err != nil {
				t.Fatal(err)
			}
			polys[d] = f
			events[d] = vss.SharedEvent{C: commit.NewMatrix(gr, f), Share: f.Eval(self, 0)}
		}
		rows, err := extract(gr, q, events, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := SumCombiner(gr)(self, q, events)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].Share.Cmp(sum.Share) != 0 || !rows[0].V.Equal(sum.V) || rows[0].C != nil {
			t.Fatalf("%s: row 0 is not the sum combiner's share and vector", gr.Name())
		}
		for p, row := range rows {
			// The combined polynomial's column-0 coefficients, from the
			// dealers' own.
			coeffs := make([]*big.Int, thr+1)
			for j := range coeffs {
				coeffs[j] = new(big.Int)
				for _, d := range q {
					pw := new(big.Int).Exp(big.NewInt(int64(d)), big.NewInt(int64(p)), gr.Q())
					coeffs[j].Add(coeffs[j], pw.Mul(pw, polys[d].Coeff(j, 0)))
				}
				coeffs[j].Mod(coeffs[j], gr.Q())
			}
			h, err := poly.FromCoeffs(gr.Q(), coeffs)
			if err != nil {
				t.Fatal(err)
			}
			if !row.V.Equal(commit.NewVector(gr, h)) {
				t.Fatalf("%s: row %d commits to another polynomial", gr.Name(), p)
			}
			if row.Share.Cmp(h.EvalInt(self)) != 0 || !row.V.VerifyShare(self, row.Share) {
				t.Fatalf("%s: row %d share is not the combined polynomial at %d", gr.Name(), p, self)
			}
		}
		// The lab's injected bug leaves row 0 right and breaks the others.
		bad, err := extract(gr, q, events, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bad[0].V.VerifyShare(self, bad[0].Share) || bad[1].V.VerifyShare(self, bad[1].Share) {
			t.Fatalf("%s: extract-share-row-zero does not break exactly the later rows", gr.Name())
		}
	}
}
