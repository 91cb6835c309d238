package thresh

import (
	"bytes"
	"math/big"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
)

// TestBindingFactorsCoverList: a member's binding factor ρ_i changes
// when anything in B changes, even another member's entry alone — that
// is what stops an adversary from re-targeting one member's answer at
// a list of its choosing — and when the message changes.
func TestBindingFactorsCoverList(t *testing.T) {
	gr := group.P256()
	pk := gr.GExp(gr.ModQ(randBig(t, gr, 1)))
	pairs := func(seed uint64) []Commitment {
		var list []Commitment
		for _, id := range []msg.NodeID{2, 4, 7} {
			p, err := NewNoncePair(gr, id, uint64(id), randBig(t, gr, seed+uint64(id)), randutil.NewReader(seed+uint64(id)))
			if err != nil {
				t.Fatal(err)
			}
			list = append(list, p.Commitment)
		}
		return list
	}
	bind := func(message []byte, list []Commitment) *Binding {
		b, err := Bind(gr, pk, message, EncodeCommitments(gr, list), list, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, other := pairs(10), pairs(20)
	base := bind([]byte("m"), a)
	changed := append([]Commitment(nil), a...)
	changed[2] = other[2]
	for name, b := range map[string]*Binding{
		"another member's entry": bind([]byte("m"), changed),
		"another message":        bind([]byte("n"), a),
	} {
		if b.rho[1].Cmp(base.rho[1]) == 0 {
			t.Fatalf("%s: member 4's binding factor did not change", name)
		}
	}
}

func randBig(t *testing.T, gr *group.Group, seed uint64) *big.Int {
	t.Helper()
	x, err := gr.RandScalar(randutil.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// ladderR is R = Π D_j·E_j^{ρ_j} by per-term exponentiations and
// pairwise products, the formula Bind computed before it moved onto
// one multi-exp.
func ladderR(gr *group.Group, b *Binding) group.Element {
	r := gr.Identity()
	for i, c := range b.List {
		r = gr.Mul(r, gr.Mul(c.D, gr.Exp(c.E, b.rho[i])))
	}
	return r
}

// ladderShareOK is VerifyShare's predicate by per-term
// exponentiations: g^{z_i} = D_i · E_i^{ρ_i} · y_i^{λ_i·c}.
func ladderShareOK(gr *group.Group, b *Binding, i int, z *big.Int, y group.Element) bool {
	c := b.List[i]
	rhs := gr.Mul(gr.Mul(c.D, gr.Exp(c.E, b.rho[i])), gr.Exp(y, gr.MulQ(b.lambda[i], b.C)))
	return gr.IsScalar(z) && gr.GExp(z).Equal(rhs)
}

// frostRound deals a degree-t key and draws fixed nonce pairs for
// signers 1…t+1; it returns the key's polynomial and commitment, the
// pairs and the bound list.
func frostRound(t *testing.T, gr *group.Group, deg int, seed uint64, message []byte) (*poly.Poly, *commit.Vector, []*NoncePair, *Binding) {
	t.Helper()
	p, err := poly.NewRandom(gr.Q(), deg, randutil.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	v := commit.NewVector(gr, p)
	rng := randutil.NewReader(seed + 1)
	pairs := make([]*NoncePair, deg+1)
	list := make([]Commitment, deg+1)
	for i := range pairs {
		id := msg.NodeID(i + 1)
		if pairs[i], err = NewNoncePair(gr, id, uint64(i), p.EvalInt(int64(id)), rng); err != nil {
			t.Fatal(err)
		}
		list[i] = pairs[i].Commitment
	}
	b, err := Bind(gr, v.PublicKey(), message, EncodeCommitments(gr, list), list, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, v, pairs, b
}

// TestBindMatchesLadder: Bind's multi-exp R equals the per-term
// formula, and for fixed nonces the signature (R, σ) is bit-identical to
// the one the per-term formula and the plain FROST sum give.
func TestBindMatchesLadder(t *testing.T) {
	for _, gr := range []*group.Group{group.P256(), group.Test256()} {
		for _, deg := range []int{1, 2, 4} {
			message := []byte{'l', byte(deg)}
			p, v, pairs, b := frostRound(t, gr, deg, uint64(10+deg), message)
			wantR := ladderR(gr, b)
			if !bytes.Equal(b.R.Bytes(), wantR.Bytes()) {
				t.Fatalf("%s t=%d: R differs from the per-term product", gr.Name(), deg)
			}
			c := challenge(gr, wantR, v.PublicKey(), message)
			wantSigma := new(big.Int)
			zs := make([]*big.Int, len(pairs))
			for i, pair := range pairs {
				share := p.EvalInt(int64(pair.Signer))
				k := gr.AddQ(pair.d, gr.MulQ(pair.e, b.rho[i]))
				wantSigma.Add(wantSigma, gr.AddQ(k, gr.MulQ(gr.MulQ(b.lambda[i], c), share)))
				var err error
				if zs[i], err = b.Sign(gr, i, pair, share); err != nil {
					t.Fatal(err)
				}
			}
			sig := b.Aggregate(gr, zs)
			if !bytes.Equal(sig.R.Bytes(), wantR.Bytes()) || sig.Sigma.Cmp(gr.ModQ(wantSigma)) != 0 {
				t.Fatalf("%s t=%d: (R, σ) differs from the per-term signature", gr.Name(), deg)
			}
			if !gr.GExp(sig.Sigma).Equal(gr.Mul(sig.R, gr.Exp(v.PublicKey(), c))) || !Verify(gr, v.PublicKey(), message, sig) {
				t.Fatalf("%s t=%d: signature fails verification", gr.Name(), deg)
			}
		}
	}
}

// TestVerifyShareMatchesLadder: on the multi-exp, a correct z_i passes,
// z_i+1 is blamed, and on random answers the verdicts equal the
// per-term formula's.
func TestVerifyShareMatchesLadder(t *testing.T) {
	for _, gr := range []*group.Group{group.P256(), group.Test256()} {
		for _, deg := range []int{1, 2, 4} {
			p, v, pairs, b := frostRound(t, gr, deg, uint64(20+deg), []byte("blame"))
			rng := randutil.NewReader(uint64(30 + deg))
			random := func() *big.Int {
				r, err := gr.RandScalar(rng)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			for i, pair := range pairs {
				y := v.Eval(int64(pair.Signer))
				z, err := b.Sign(gr, i, pair, p.EvalInt(int64(pair.Signer)))
				if err != nil {
					t.Fatal(err)
				}
				if !b.VerifyShare(gr, i, z, y) {
					t.Fatalf("%s t=%d: honest z_%d blamed", gr.Name(), deg, pair.Signer)
				}
				if b.VerifyShare(gr, i, gr.AddQ(z, big.NewInt(1)), y) {
					t.Fatalf("%s t=%d: z_%d+1 passes", gr.Name(), deg, pair.Signer)
				}
				for _, cand := range []*big.Int{z, gr.AddQ(z, big.NewInt(1)), random(), gr.Q(), new(big.Int)} {
					for _, yy := range []group.Element{y, v.Eval(int64(pair.Signer) + 1)} {
						if got, want := b.VerifyShare(gr, i, cand, yy), ladderShareOK(gr, b, i, cand, yy); got != want {
							t.Fatalf("%s t=%d: verdict %v, per-term formula %v", gr.Name(), deg, got, want)
						}
					}
				}
			}
		}
	}
}
