package thresh

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"hybriddkg/internal/group"
	"hybriddkg/internal/msg"
	"hybriddkg/internal/poly"
)

// FROST signing (Komlo & Goldberg, eprint 2020/852; RFC 9591). Each
// signer draws its own nonce pair (d, e) and publishes only the
// commitment (D, E) = (g^d, g^e). A signing set S of t+1 signers and
// their commitment list B fix, for each member i, a binding factor
// ρ_i = H(pk, m, B, i), the group nonce R = Π D_j·E_j^{ρ_j} and the
// challenge c = H(R ‖ pk ‖ m). Member i answers
//
//	z_i = d_i + e_i·ρ_i + λ_i·c·s_i
//
// with λ_i its Lagrange coefficient at 0 over S, and Σ z_i is the σ of
// an ordinary Schnorr signature (R, σ) that Verify checks. A pair signs
// one (m, B) and is then erased: ρ_i binds the answer to the whole of
// B, so no two lists can be combined against one nonce.

// Commitment is one signer's public nonce commitment (D, E), named by
// an ID the signer chose.
type Commitment struct {
	Signer msg.NodeID
	ID     uint64
	D, E   group.Element

	encD, encE []byte // compressed encodings, as sent and hashed
}

// NoncePair is a signer's secret nonce pair together with its public
// commitment. The secrets live only in memory and are erased by the
// first Sign that uses them.
type NoncePair struct {
	Commitment
	d, e *big.Int
}

// NewNoncePair draws a fresh pair for signer under the given ID. As in
// RFC 9591 §4.1 each nonce is hedged: H(32 random bytes ‖ share), so a
// weak random source alone does not repeat a nonce.
func NewNoncePair(gr *group.Group, signer msg.NodeID, id uint64, share *big.Int, rand io.Reader) (*NoncePair, error) {
	var rnd [64]byte
	if _, err := io.ReadFull(rand, rnd[:]); err != nil {
		return nil, err
	}
	sb := share.FillBytes(make([]byte, gr.ScalarLen()))
	d := gr.HashToScalar("hybriddkg/frost-nonce/v1", rnd[:32], sb)
	e := gr.HashToScalar("hybriddkg/frost-nonce/v1", rnd[32:], sb)
	bigD, bigE := gr.GExp(d), gr.GExp(e)
	return &NoncePair{
		Commitment: Commitment{
			Signer: signer, ID: id, D: bigD, E: bigE,
			encD: gr.EncodeCompressed(bigD), encE: gr.EncodeCompressed(bigE),
		},
		d: d, e: e,
	}, nil
}

// Spent reports whether the pair's secrets have been erased.
func (p *NoncePair) Spent() bool { return p.d == nil }

// Matches reports whether c is, byte for byte, this pair's commitment.
func (p *NoncePair) Matches(c Commitment) bool {
	return c.Signer == p.Signer && c.ID == p.ID && bytes.Equal(c.encD, p.encD) && bytes.Equal(c.encE, p.encE)
}

// Decode decodes the points of a parsed entry.
func (c *Commitment) Decode(gr *group.Group) (err error) {
	if c.D, err = gr.DecodeCompressed(c.encD); err == nil {
		c.E, err = gr.DecodeCompressed(c.encE)
	}
	return err
}

// MaxCommitments bounds the entries one encoded list may hold; rawMin
// is the fewest bytes an entry takes (signer, ID, two blob lengths).
const (
	MaxCommitments = 4096
	rawMin         = 24
)

// EncodeCommitments encodes a commitment list: a count, then per entry
// the signer, the ID and the two compressed points.
func EncodeCommitments(gr *group.Group, list []Commitment) []byte {
	w := msg.NewWriter(4 + len(list)*(24+2*gr.CompressedLen()))
	w.U32(uint32(len(list)))
	for i := range list {
		c := &list[i]
		if c.encD == nil {
			c.encD, c.encE = gr.EncodeCompressed(c.D), gr.EncodeCompressed(c.E)
		}
		w.Node(c.Signer)
		w.U64(c.ID)
		w.Blob(c.encD)
		w.Blob(c.encE)
	}
	return w.Bytes()
}

// ParseCommitments splits an encoded list into its entries without
// decoding any point: D and E stay nil until Decode. The entries alias
// data.
func ParseCommitments(data []byte) ([]Commitment, error) {
	r := msg.NewReader(data)
	n, err := r.ListLen(MaxCommitments)
	if err != nil {
		return nil, err
	}
	if n*rawMin > len(data) {
		return nil, fmt.Errorf("%w: %d commitments in %d bytes", msg.ErrBadEnvelope, n, len(data))
	}
	out := make([]Commitment, n)
	for i := range out {
		out[i] = Commitment{Signer: r.Node(), ID: r.U64(), encD: r.Blob(), encE: r.Blob()}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// Binding is what one signing attempt derives from (pk, m, B): the
// members' binding factors and Lagrange coefficients, R and c.
type Binding struct {
	List   []Commitment // B, ordered by signer
	R      group.Element
	C      *big.Int
	rho    []*big.Int
	lambda []*big.Int
}

// Bind derives the binding of list, whose encoding enc (as produced by
// EncodeCommitments) is what every member hashes. Signers must be
// positive and strictly increasing. lag, if non-nil, memoises the
// Lagrange coefficients at 0.
func Bind(gr *group.Group, pk group.Element, message, enc []byte, list []Commitment, lag *poly.LagrangeCache) (*Binding, error) {
	if len(list) == 0 {
		return nil, fmt.Errorf("%w: empty commitment list", ErrBadArguments)
	}
	idx := make([]int64, len(list))
	for i, c := range list {
		if c.Signer <= 0 || (i > 0 && c.Signer <= list[i-1].Signer) {
			return nil, fmt.Errorf("%w: commitment list not ordered by signer", ErrBadArguments)
		}
		idx[i] = int64(c.Signer)
	}
	var (
		lambda []*big.Int
		err    error
	)
	if lag != nil {
		lambda, err = lag.Coeffs(idx)
	} else {
		lambda, err = poly.LagrangeCoeffsAt(gr.Q(), idx, 0)
	}
	if err != nil {
		return nil, err
	}
	hm, hb := sha256.Sum256(message), sha256.Sum256(enc)
	prefix := make([]byte, 0, 80)
	prefix = append(prefix, pk.Bytes()...)
	prefix = append(prefix, hm[:]...)
	prefix = append(prefix, hb[:]...)
	b := &Binding{List: list, rho: make([]*big.Int, len(list)), lambda: lambda}
	bases := make([]group.Element, 0, 2*len(list))
	exps := make([]*big.Int, 0, 2*len(list))
	unit := big.NewInt(1)
	var id [8]byte
	for i, c := range list {
		binary.BigEndian.PutUint64(id[:], uint64(c.Signer))
		b.rho[i] = gr.HashToScalar("hybriddkg/frost-rho/v1", prefix, id[:])
		bases = append(bases, c.D, c.E)
		exps = append(exps, unit, b.rho[i])
	}
	// R = Π D_j·E_j^{ρ_j} is made of published commitments and public
	// hashes only, so it is one variable-time multi-exp: the D_j are bare
	// additions, the E_j^{ρ_j} share one doubling chain, and the product
	// is normalised once.
	b.R = gr.VarTimeMultiExp(bases, exps)
	b.C = challenge(gr, b.R, pk, message)
	return b, nil
}

// Index returns the position of signer's entry in the list, or −1.
func (b *Binding) Index(signer msg.NodeID) int {
	for i, c := range b.List {
		if c.Signer == signer {
			return i
		}
	}
	return -1
}

// Sign computes member i's z_i = d + e·ρ_i + λ_i·c·share with the pair
// committed at position i, erasing the pair's secrets before it
// returns: a pair answers once.
func (b *Binding) Sign(gr *group.Group, i int, pair *NoncePair, share *big.Int) (*big.Int, error) {
	if i < 0 || i >= len(b.List) || pair.Spent() || pair.ID != b.List[i].ID || pair.Signer != b.List[i].Signer {
		return nil, fmt.Errorf("%w: pair does not match entry %d", ErrBadArguments, i)
	}
	k := gr.AddQ(pair.d, gr.MulQ(pair.e, b.rho[i]))
	pair.d, pair.e = nil, nil
	return PartialSignPre(gr, pair.Signer, share, k, gr.MulQ(b.lambda[i], b.C)).Sigma, nil
}

// VerifyShare checks member i's z_i against its public key share
// y_i = V(i): g^{z_i} = D_i · E_i^{ρ_i} · y_i^{λ_i·c}, checked as
// D_i · E_i^{ρ_i} · y_i^{λ_i·c} · g^{−z_i} = 1 in one variable-time
// multi-exp, since a peer's answer, its commitment and y_i are public.
func (b *Binding) VerifyShare(gr *group.Group, i int, z *big.Int, y group.Element) bool {
	if i < 0 || i >= len(b.List) || !gr.IsScalar(z) {
		return false
	}
	c := b.List[i]
	return gr.VarTimeMultiExp(
		[]group.Element{c.D, c.E, y, gr.Generator()},
		[]*big.Int{big.NewInt(1), b.rho[i], gr.MulQ(b.lambda[i], b.C), gr.NegQ(z)},
	).Equal(gr.Identity())
}

// Aggregate sums the members' answers, in list order, into the
// signature (R, Σ z_i).
func (b *Binding) Aggregate(gr *group.Group, zs []*big.Int) Signature {
	sum := new(big.Int)
	for _, z := range zs {
		sum.Add(sum, z)
	}
	return Signature{R: b.R, Sigma: gr.ModQ(sum)}
}
