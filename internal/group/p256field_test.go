package group

import (
	"crypto/elliptic"
	"math/big"
	"testing"

	"hybriddkg/internal/randutil"
)

// TestP256FieldAgainstBigInt cross-checks the flat-limb field
// arithmetic against math/big on random and adversarial values.
func TestP256FieldAgainstBigInt(t *testing.T) {
	p := elliptic.P256().Params().P
	if feRawToBig(&p256P).Cmp(p) != 0 {
		t.Fatal("p256P constant wrong")
	}
	if feToBig(&feMontOne).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("Montgomery one constant wrong")
	}
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	special := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		pm1, new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 224), new(big.Int).Lsh(big.NewInt(1), 96),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19)),
		// Top limb 0xffffffff00000000: just under p's top limb, so the
		// carries and the final subtraction sit at their edge.
		topLimb(0), topLimb(1), topLimb(0x7fffffff),
		new(big.Int).Sub(p, new(big.Int).Lsh(big.NewInt(1), 192)),
	}
	r := randutil.NewReader(7)
	vals := append([]*big.Int{}, special...)
	for i := 0; i < 60; i++ {
		v, err := randInt(r, p)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	var fx, fy, fz fe
	for _, x := range vals {
		for _, y := range vals {
			feFromBig(&fx, x)
			feFromBig(&fy, y)
			if feToBig(&fx).Cmp(x) != 0 {
				t.Fatalf("round trip failed for %v", x)
			}
			feMul(&fz, &fx, &fy)
			want := new(big.Int).Mod(new(big.Int).Mul(x, y), p)
			if feToBig(&fz).Cmp(want) != 0 {
				t.Fatalf("mul mismatch: %v * %v", x, y)
			}
			feAdd(&fz, &fx, &fy)
			want = new(big.Int).Mod(new(big.Int).Add(x, y), p)
			if feToBig(&fz).Cmp(want) != 0 {
				t.Fatalf("add mismatch: %v + %v", x, y)
			}
			feSub(&fz, &fx, &fy)
			want = new(big.Int).Mod(new(big.Int).Sub(x, y), p)
			if feToBig(&fz).Cmp(want) != 0 {
				t.Fatalf("sub mismatch: %v - %v", x, y)
			}
		}
	}
	// Squaring has its own ten-product path; check it against math/big,
	// not against feMul.
	for _, x := range vals {
		feFromBig(&fx, x)
		feSqr(&fz, &fx)
		want := new(big.Int).Mod(new(big.Int).Mul(x, x), p)
		if feToBig(&fz).Cmp(want) != 0 {
			t.Fatalf("sqr mismatch: %v", x)
		}
	}
	// The same edge values as raw limbs, i.e. as the Montgomery-domain
	// words the multiply sees: feMul(a, b) = a·b·R⁻¹ mod p.
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), p)
	for _, x := range special {
		for _, y := range special {
			feRawFromBig(&fx, x)
			feRawFromBig(&fy, y)
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rInv).Mod(want, p)
			feMul(&fz, &fx, &fy)
			if feRawToBig(&fz).Cmp(want) != 0 {
				t.Fatalf("raw mul mismatch: %x * %x", x, y)
			}
			if x == y {
				feSqr(&fz, &fx)
				if feRawToBig(&fz).Cmp(want) != 0 {
					t.Fatalf("raw sqr mismatch: %x", x)
				}
			}
		}
	}
}

// topLimb returns 0xffffffff00000000·2¹⁹² + low.
func topLimb(low int64) *big.Int {
	v := new(big.Int).Lsh(new(big.Int).SetUint64(0xffffffff00000000), 192)
	return v.Add(v, big.NewInt(low))
}

// checkFieldOps compares mul, sqr, add, sub, inv and sqrt on x and y
// (reduced mod p) with math/big.
func checkFieldOps(t *testing.T, x, y *big.Int) {
	t.Helper()
	p := elliptic.P256().Params().P
	x, y = new(big.Int).Mod(x, p), new(big.Int).Mod(y, p)
	var fx, fy, fz fe
	feFromBig(&fx, x)
	feFromBig(&fy, y)
	check := func(op string, want *big.Int) {
		t.Helper()
		if got := feToBig(&fz); got.Cmp(want.Mod(want, p)) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, x, y, got, want)
		}
	}
	feMul(&fz, &fx, &fy)
	check("mul", new(big.Int).Mul(x, y))
	feSqr(&fz, &fx)
	check("sqr", new(big.Int).Mul(x, x))
	feAdd(&fz, &fx, &fy)
	check("add", new(big.Int).Add(x, y))
	feSub(&fz, &fx, &fy)
	check("sub", new(big.Int).Sub(x, y))
	feInv(&fz, &fx)
	if x.Sign() == 0 {
		check("inv", new(big.Int))
	} else {
		check("inv", new(big.Int).ModInverse(x, p))
	}
	root := new(big.Int).ModSqrt(x, p)
	if ok := feSqrt(&fz, &fx); ok != (root != nil) {
		t.Fatalf("sqrt(%x) reports %v, math/big %v", x, ok, root != nil)
	} else if ok {
		feSqr(&fz, &fz)
		check("sqrt²", new(big.Int).Set(x))
	}
}

// FuzzP256Field cross-checks the field operations against math/big on
// arbitrary 32-byte inputs (reduced mod p).
func FuzzP256Field(f *testing.F) {
	p := elliptic.P256().Params().P
	pm := func(d int64) []byte {
		b := make([]byte, 32)
		return new(big.Int).Sub(p, big.NewInt(d)).FillBytes(b)
	}
	top := topLimb(0).FillBytes(make([]byte, 32))
	f.Add(make([]byte, 32), make([]byte, 32))
	f.Add(pm(1), pm(1))
	f.Add(pm(2), pm(1))
	f.Add(top, pm(2))
	f.Add(top, top)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 32 || len(b) > 32 {
			return
		}
		checkFieldOps(t, new(big.Int).SetBytes(a), new(big.Int).SetBytes(b))
	})
}

// TestFeInv cross-checks the Fermat-inversion addition chain against
// math/big's ModInverse, including the feInv(0) = 0 convention the
// batch-normalization code relies on.
func TestFeInv(t *testing.T) {
	p := elliptic.P256().Params().P
	r := randutil.NewReader(13)
	var x, inv fe
	for i := 0; i < 200; i++ {
		buf := make([]byte, 32)
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
		v := new(big.Int).Mod(new(big.Int).SetBytes(buf), p)
		if v.Sign() == 0 {
			continue
		}
		feFromBig(&x, v)
		feInv(&inv, &x)
		want := new(big.Int).ModInverse(v, p)
		if feToBig(&inv).Cmp(want) != 0 {
			t.Fatalf("feInv mismatch for %v", v)
		}
	}
	// One and p−1 are their own inverses; zero maps to zero.
	feInv(&inv, &feMontOne)
	if feToBig(&inv).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("feInv(1) != 1")
	}
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	feFromBig(&x, pm1)
	feInv(&inv, &x)
	if feToBig(&inv).Cmp(pm1) != 0 {
		t.Fatal("feInv(p-1) != p-1")
	}
	var z fe
	feInv(&inv, &z)
	if !feIsZero(&inv) {
		t.Fatal("feInv(0) != 0")
	}
}
