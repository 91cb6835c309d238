package thresh_test

import (
	"bytes"
	"math/big"
	"testing"

	"hybriddkg/internal/commit"
	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
	"hybriddkg/internal/randutil"
	"hybriddkg/internal/thresh"
)

// frostKey deals a degree-t key over n signers.
type frostKey struct {
	gr *group.Group
	p  *poly.Poly
	v  *commit.Vector
}

func newFrostKey(t *testing.T, gr *group.Group, deg int, seed uint64) frostKey {
	t.Helper()
	p, err := poly.NewRandom(gr.Q(), deg, randutil.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	return frostKey{gr: gr, p: p, v: commit.NewVector(gr, p)}
}

// round runs one FROST round for signers over message: fresh pairs, the
// encoded list B, each member's z_i. It returns the binding, the pairs'
// answers in list order and B.
func (k frostKey) round(t *testing.T, signers []msg.NodeID, message []byte, seed uint64) (*thresh.Binding, []*big.Int, []byte) {
	t.Helper()
	rng := randutil.NewReader(seed)
	pairs := make([]*thresh.NoncePair, len(signers))
	list := make([]thresh.Commitment, len(signers))
	for i, id := range signers {
		pair, err := thresh.NewNoncePair(k.gr, id, uint64(i+1), k.p.EvalInt(int64(id)), rng)
		if err != nil {
			t.Fatal(err)
		}
		pairs[i], list[i] = pair, pair.Commitment
	}
	enc := thresh.EncodeCommitments(k.gr, list)
	b, err := thresh.Bind(k.gr, k.v.PublicKey(), message, enc, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	zs := make([]*big.Int, len(signers))
	for i, id := range signers {
		if zs[i], err = b.Sign(k.gr, i, pairs[i], k.p.EvalInt(int64(id))); err != nil {
			t.Fatal(err)
		}
		if !pairs[i].Spent() {
			t.Fatalf("signer %d: pair not erased by Sign", id)
		}
		if _, err := b.Sign(k.gr, i, pairs[i], k.p.EvalInt(int64(id))); err == nil {
			t.Fatalf("signer %d: spent pair signed again", id)
		}
	}
	return b, zs, enc
}

// TestFROSTVerifiesAtEverySize: t+1 signers out of n ∈ {4, 7, 10}
// (t = ⌊(n−1)/3⌋), any set of them, sum to an ordinary Schnorr signature
// that Verify accepts, and each member's answer passes its share check.
func TestFROSTVerifiesAtEverySize(t *testing.T) {
	for _, gr := range []*group.Group{group.P256(), group.Test256()} {
		for _, n := range []int{4, 7, 10} {
			deg := (n - 1) / 3
			k := newFrostKey(t, gr, deg, uint64(n))
			for _, first := range []int{1, n - deg} {
				var signers []msg.NodeID
				for i := 0; i <= deg; i++ {
					signers = append(signers, msg.NodeID(first+i))
				}
				message := []byte{'f', byte(n), byte(first)}
				b, zs, _ := k.round(t, signers, message, uint64(n*100+first))
				for i, id := range signers {
					if !b.VerifyShare(gr, i, zs[i], k.v.Eval(int64(id))) {
						t.Fatalf("%s n=%d: honest z_%d fails its share check", gr.Name(), n, id)
					}
				}
				sig := b.Aggregate(gr, zs)
				if !thresh.Verify(gr, k.v.PublicKey(), message, sig) {
					t.Fatalf("%s n=%d signers %v: signature does not verify", gr.Name(), n, signers)
				}
				if thresh.Verify(gr, k.v.PublicKey(), []byte("other"), sig) {
					t.Fatalf("%s n=%d: signature verifies another message", gr.Name(), n)
				}
			}
		}
	}
}

// TestFROSTShareBoundToList: an answer made for one commitment list
// fails its share check under any other list — another signer's entry
// changed, or the same entries for another message — and a list whose
// signers are out of order does not bind at all.
func TestFROSTShareBoundToList(t *testing.T) {
	gr := group.P256()
	k := newFrostKey(t, gr, 2, 5)
	signers := []msg.NodeID{2, 4, 7}
	message := []byte("bound")
	b, zs, _ := k.round(t, signers, message, 1)
	other, _, _ := k.round(t, signers, message, 2) // fresh pairs for every member
	// Member 4 keeps its commitment; the others' change.
	list := append([]thresh.Commitment(nil), other.List...)
	list[1] = b.List[1]
	enc := thresh.EncodeCommitments(gr, list)
	swapped, err := thresh.Bind(gr, k.v.PublicKey(), message, enc, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	if swapped.VerifyShare(gr, 1, zs[1], k.v.Eval(4)) {
		t.Fatal("z_4 made for one list passes under another")
	}
	again, err := thresh.Bind(gr, k.v.PublicKey(), []byte("other message"), thresh.EncodeCommitments(gr, b.List), b.List, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.VerifyShare(gr, 1, zs[1], k.v.Eval(4)) {
		t.Fatal("z_4 made for one message passes under another")
	}
	if !b.VerifyShare(gr, 1, zs[1], k.v.Eval(4)) {
		t.Fatal("z_4 fails under its own list")
	}
	rev := []thresh.Commitment{b.List[2], b.List[1], b.List[0]}
	if _, err := thresh.Bind(gr, k.v.PublicKey(), message, thresh.EncodeCommitments(gr, rev), rev, nil); err == nil {
		t.Fatal("a list out of signer order was bound")
	}
}

// TestFROSTBatchVerifySignatures: aggregated signatures verify together
// in one BatchVerifySignaturesPre call, with or without precomputed
// challenges, and one corrupted signature fails the whole batch.
func TestFROSTBatchVerifySignatures(t *testing.T) {
	gr := group.Test256()
	k := newFrostKey(t, gr, 2, 27)
	var msgs [][]byte
	var sigs []thresh.Signature
	var cs []*big.Int
	for j := 0; j < 4; j++ {
		message := []byte{byte('a' + j)}
		b, zs, _ := k.round(t, []msg.NodeID{1, 2, 3}, message, 30+uint64(j))
		msgs, sigs, cs = append(msgs, message), append(sigs, b.Aggregate(gr, zs)), append(cs, b.C)
	}
	if !thresh.BatchVerifySignaturesPre(gr, k.v.PublicKey(), msgs, cs, sigs) ||
		!thresh.BatchVerifySignaturesPre(gr, k.v.PublicKey(), msgs, nil, sigs) {
		t.Fatal("batch rejected all-valid signatures")
	}
	bad := append([]thresh.Signature(nil), sigs...)
	bad[2] = thresh.Signature{R: bad[2].R, Sigma: gr.AddQ(bad[2].Sigma, big.NewInt(1))}
	if thresh.BatchVerifySignaturesPre(gr, k.v.PublicKey(), msgs, cs, bad) {
		t.Fatal("batch accepted a corrupted signature")
	}
}

// FuzzParseCommitments: the commitment-list decoder behind every sign
// request item never panics, accepts only what re-encodes to the same
// bytes, and decodes points only through the group's validating decoder.
func FuzzParseCommitments(f *testing.F) {
	gr := group.P256()
	k := frostKey{gr: gr}
	p, _ := poly.NewRandom(gr.Q(), 1, randutil.NewReader(1))
	k.p, k.v = p, commit.NewVector(gr, p)
	var list []thresh.Commitment
	for i := 1; i <= 3; i++ {
		pair, _ := thresh.NewNoncePair(gr, msg.NodeID(i), uint64(i)<<32|7, p.EvalInt(int64(i)), randutil.NewReader(uint64(i)))
		list = append(list, pair.Commitment)
	}
	f.Add(thresh.EncodeCommitments(gr, list))
	f.Add(thresh.EncodeCommitments(gr, nil))
	f.Add([]byte{0, 0, 0, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := thresh.ParseCommitments(data)
		if err != nil {
			return
		}
		for i := range decoded {
			if decoded[i].Decode(gr) != nil {
				return
			}
			if !gr.IsElement(decoded[i].D) || !gr.IsElement(decoded[i].E) {
				t.Fatal("decoded a non-element")
			}
		}
		if again := thresh.EncodeCommitments(gr, decoded); !bytes.Equal(again, data) {
			t.Fatalf("list re-encodes to other bytes:\n%x\n%x", data, again)
		}
		if _, err := thresh.Bind(gr, k.v.PublicKey(), []byte("m"), data, decoded, nil); err == nil {
			for i := 1; i < len(decoded); i++ {
				if decoded[i].Signer <= decoded[i-1].Signer {
					t.Fatal("bound a list out of signer order")
				}
			}
		}
	})
}
