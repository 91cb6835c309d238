package thresh

import (
	"math/big"
	"testing"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
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
