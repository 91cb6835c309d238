package group

import (
	"fmt"
	"math/big"
	"testing"

	"hybriddkg/internal/randutil"
)

// Micro-benchmarks for the P-256 field and point layer. Run with
//
//	go test -run '^$' -bench . -count 10 ./internal/group/
//
// and compare two trees with benchstat.

var (
	sinkFe   fe
	sinkBool bool
	sinkEl   Element
	sinkEls  []Element
)

// benchFe returns n pseudo-random field elements (Montgomery domain).
func benchFe(b *testing.B, n int) []fe {
	b.Helper()
	p := feRawToBig(&p256P)
	r := randutil.NewReader(99)
	out := make([]fe, n)
	for i := range out {
		v, err := randInt(r, p)
		if err != nil {
			b.Fatal(err)
		}
		feFromBig(&out[i], v)
	}
	return out
}

func BenchmarkFeMul(b *testing.B) {
	v := benchFe(b, 2)
	x, y := v[0], v[1]
	for i := 0; i < b.N; i++ {
		feMul(&x, &x, &y)
	}
	sinkFe = x
}

func BenchmarkFeSqr(b *testing.B) {
	x := benchFe(b, 1)[0]
	for i := 0; i < b.N; i++ {
		feSqr(&x, &x)
	}
	sinkFe = x
}

func BenchmarkFeInv(b *testing.B) {
	x := benchFe(b, 1)[0]
	for i := 0; i < b.N; i++ {
		feInv(&x, &x)
	}
	sinkFe = x
}

func BenchmarkFeSqrt(b *testing.B) {
	x := benchFe(b, 1)[0]
	feSqr(&x, &x) // a residue
	var z fe
	for i := 0; i < b.N; i++ {
		sinkBool = feSqrt(&z, &x)
	}
	sinkFe = z
}

// benchPoint returns a Jacobian point with a non-trivial Z.
func benchPoint(b *testing.B) (jp, ap) {
	b.Helper()
	gr := P256()
	pb := gr.Backend().(*P256Backend)
	var j jp
	jpFromElement(&j, pb.el(gr.GExp(big.NewInt(12345))))
	jpDouble(&j)
	var a ap
	apFromElement(&a, pb.el(gr.HashToElement("bench", []byte("affine"))))
	return j, a
}

func BenchmarkJpDouble(b *testing.B) {
	j, _ := benchPoint(b)
	for i := 0; i < b.N; i++ {
		jpDouble(&j)
	}
	sinkFe = j.x
}

func BenchmarkJpAddAffine(b *testing.B) {
	j, a := benchPoint(b)
	for i := 0; i < b.N; i++ {
		jpAddAffine(&j, &a)
	}
	sinkFe = j.x
}

func BenchmarkJpAdd(b *testing.B) {
	j, _ := benchPoint(b)
	o := j
	jpDouble(&o)
	for i := 0; i < b.N; i++ {
		jpAdd(&j, &o)
	}
	sinkFe = j.x
}

func BenchmarkPointMul(b *testing.B) {
	gr := P256()
	x := gr.GExp(big.NewInt(7))
	y := gr.HashToElement("bench", []byte("mul"))
	for i := 0; i < b.N; i++ {
		sinkEl = gr.Mul(x, y)
	}
}

func BenchmarkDecodeCompressed(b *testing.B) {
	gr := P256()
	enc := gr.EncodeCompressed(gr.HashToElement("bench", []byte("decode")))
	for i := 0; i < b.N; i++ {
		e, err := gr.DecodeCompressed(enc)
		if err != nil {
			b.Fatal(err)
		}
		sinkEl = e
	}
}

// BenchmarkHorner times the t+1 row chains of a degree-t commitment
// matrix at one index (t = 2, the rig's n = 7 setting), evaluated one
// chain at a time and as one batch.
func BenchmarkHorner(b *testing.B) {
	gr := P256()
	const t = 2
	r := randutil.NewReader(5)
	rows := make([][]Element, t+1)
	for j := range rows {
		rows[j] = make([]Element, t+1)
		for l := range rows[j] {
			s, err := gr.RandScalar(r)
			if err != nil {
				b.Fatal(err)
			}
			rows[j][l] = gr.GExp(s)
		}
	}
	b.Run("chains=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkEl = gr.Horner(rows[0], 5)
		}
	})
	b.Run(fmt.Sprintf("chains=%d/each", t+1), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, row := range rows {
				sinkEl = gr.Horner(row, 5)
			}
		}
	})
	b.Run(fmt.Sprintf("chains=%d/batch", t+1), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkEls = gr.HornerBatch(rows, 5)
		}
	})
}

// BenchmarkMultiExp compares, for k full-width exponents over
// non-generator bases, VarTimeMultiExp (which picks its own path), the
// shared Straus chain alone, and k constant-time Exp calls with k−1
// Muls: the comparison behind the cost constants in p256_multiexp.go.
func BenchmarkMultiExp(b *testing.B) {
	gr := P256()
	pb := gr.Backend().(*P256Backend)
	r := randutil.NewReader(11)
	for _, k := range []int{1, 2, 3} {
		bases := make([]Element, k)
		pts := make([]*p256Element, k)
		exps := make([]*big.Int, k)
		for i := range bases {
			bases[i] = gr.HashToElement("bench", []byte{byte(i)})
			pts[i] = pb.el(bases[i])
			e, err := gr.RandScalar(r)
			if err != nil {
				b.Fatal(err)
			}
			exps[i] = e
		}
		b.Run(fmt.Sprintf("straus/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var acc jp
				pb.strausJP(&acc, pts, exps, nil)
				sinkEl = pb.jpToAffine(&acc)
			}
		})
		b.Run(fmt.Sprintf("vartime/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkEl = gr.VarTimeMultiExp(bases, exps)
			}
		})
		b.Run(fmt.Sprintf("exp/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := gr.Exp(bases[0], exps[0])
				for j := 1; j < k; j++ {
					acc = gr.Mul(acc, gr.Exp(bases[j], exps[j]))
				}
				sinkEl = acc
			}
		})
	}
}

// BenchmarkMultiExpMixed times the near-tie the cost model must call:
// one full-width exponent beside three 64-bit ones (a batch check's
// blinded terms), all on the shared chain or with the full-width term
// on the ladder.
func BenchmarkMultiExpMixed(b *testing.B) {
	gr := P256()
	pb := gr.Backend().(*P256Backend)
	r := randutil.NewReader(13)
	bases := make([]Element, 4)
	pts := make([]*p256Element, 4)
	exps := make([]*big.Int, 4)
	for i := range bases {
		bases[i] = gr.HashToElement("bench-mixed", []byte{byte(i)})
		pts[i] = pb.el(bases[i])
		e, err := gr.RandScalar(r)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			e.Rsh(e, uint(e.BitLen()-64))
		}
		exps[i] = e
	}
	b.Run("chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var acc jp
			pb.strausJP(&acc, pts, exps, nil)
			sinkEl = pb.jpToAffine(&acc)
		}
	})
	b.Run("ladder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var acc jp
			pb.strausJP(&acc, pts[1:], exps[1:], nil)
			var a ap
			apFromElement(&a, pb.el(gr.Exp(bases[0], exps[0])))
			jpAddAffine(&acc, &a)
			sinkEl = pb.jpToAffine(&acc)
		}
	})
	b.Run("vartime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkEl = gr.VarTimeMultiExp(bases, exps)
		}
	})
}
