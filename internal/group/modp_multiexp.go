package group

import "math/big"

// MultiExp implements Backend by per-term modexp: the same data path
// Exp takes for each term, so secret exponents gain no new timing
// surface beyond what single exponentiations already have.
func (b *ModP) MultiExp(bases []Element, exps []*big.Int) Element {
	if len(bases) != len(exps) {
		panic("group: multiexp bases/exps length mismatch")
	}
	acc := big.NewInt(1)
	tmp := new(big.Int)
	for i, base := range bases {
		e := exps[i]
		if e.Sign() < 0 || e.Cmp(b.q) >= 0 {
			e = new(big.Int).Mod(e, b.q)
		}
		tmp.Exp(b.el(base).v, e, b.p)
		acc.Mul(acc, tmp)
		acc.Mod(acc, b.p)
	}
	return &modpElement{v: acc}
}

// VarTimeMultiExp implements Backend. Generator terms (and any base
// registered with Precompute) are peeled off and served from their
// fixed-base windowed tables — zero squarings; the rest run through
// interleaved Straus windows for small term counts or Pippenger
// buckets for large ones, sharing one squaring chain across all
// terms. All arithmetic keeps the accumulator as a raw residue with
// an explicit quotient receiver, the same inner-loop discipline as
// Horner.
func (b *ModP) VarTimeMultiExp(bases []Element, exps []*big.Int) Element {
	if len(bases) != len(exps) {
		panic("group: multiexp bases/exps length mismatch")
	}
	red, _ := reduceExps(b.q, exps)

	acc := big.NewInt(1)
	tmp := new(big.Int)
	quo := new(big.Int)
	mulAcc := func(v *big.Int) {
		tmp.Mul(acc, v)
		quo.QuoRem(tmp, b.p, acc)
	}

	// Split fixed-base terms (served from windowed tables) from the
	// general ones; generator exponents merge into one table lookup.
	gExp := new(big.Int)
	var genBases []*big.Int
	var genExps []*big.Int
	for i, base := range bases {
		e := red[i]
		if e.Sign() == 0 {
			continue
		}
		v := b.el(base).v
		if v.Cmp(one) == 0 {
			continue // identity base
		}
		if v.Cmp(b.g) == 0 {
			gExp.Add(gExp, e)
			continue
		}
		if e.Cmp(one) == 0 {
			mulAcc(v) // unit exponent: a bare multiplication
			continue
		}
		if t := b.tableFor(v); t != nil && t.covers(e) {
			mulAcc(t.exp(e))
			continue
		}
		genBases = append(genBases, v)
		genExps = append(genExps, e)
	}
	if gExp.Sign() != 0 {
		gExp.Mod(gExp, b.q)
		if gExp.Sign() != 0 {
			mulAcc(b.generatorTable().exp(gExp))
		}
	}

	switch {
	case len(genBases) == 0:
		// nothing further
	case len(genBases) == 1 || b.expWins(genExps):
		mulAcc(b.expEach(genBases, genExps))
	case len(genBases) >= pippengerCutoff:
		mulAcc(b.pippenger(genBases, genExps))
	default:
		mulAcc(b.straus(genBases, genExps))
	}
	return &modpElement{v: acc}
}

// expWins reports whether per-term big.Int.Exp beats the shared chain
// for these exponents. Exp's Montgomery arithmetic outruns the chain's
// schoolbook products (Mul + QuoRem) on full-width exponents up to a
// term count that falls as the modulus widens; short exponents always
// share the chain. BenchmarkModPMultiExp measures the crossover.
func (b *ModP) expWins(exps []*big.Int) bool {
	if len(exps) > b.expTermsMax() {
		return false
	}
	for _, e := range exps {
		if e.BitLen() <= 96 {
			return false
		}
	}
	return true
}

// expTermsMax is the largest count of full-width terms for which
// per-term Exp beats the Straus chain. On a 2-vCPU host (medians of
// six 300 ms runs): test256 k=8 140 against 204 µs, k=16 308 against
// 326, k=24 a tie; test512 k=8 327 against 398, k=16 658 against 776;
// prod2048 k=3 a tie, k=4 2148 against 1893.
func (b *ModP) expTermsMax() int {
	if b.p.BitLen() <= 512 {
		return 16
	}
	return 3
}

// expEach computes Π bases[i]^exps[i] with one big.Int.Exp per term.
func (b *ModP) expEach(bases, exps []*big.Int) *big.Int {
	acc := new(big.Int).Exp(bases[0], exps[0], b.p)
	tmp := new(big.Int)
	quo := new(big.Int)
	for i := 1; i < len(bases); i++ {
		tmp.Mul(acc, new(big.Int).Exp(bases[i], exps[i], b.p))
		quo.QuoRem(tmp, b.p, acc)
	}
	return acc
}

// straus computes Π bases[i]^exps[i] by interleaved fixed-window
// evaluation: per-base tables of the powers 1..2^w−1, one shared
// squaring chain over the longest exponent. Exponents are canonical
// scalars; bases are residues. Unsigned windows — Z_p* inversions are
// a full ModInverse each, so signed digits don't pay here.
func (b *ModP) straus(bases, exps []*big.Int) *big.Int {
	maxBits := 0
	for _, e := range exps {
		if l := e.BitLen(); l > maxBits {
			maxBits = l
		}
	}
	w := strausWindow(maxBits)
	acc := big.NewInt(1)
	tmp := new(big.Int)
	quo := new(big.Int)
	// tab[i][d-1] = bases[i]^d for d in [1, 2^w); explicit quotient
	// receivers keep big.Int.Mod's hidden per-call allocation out of
	// the table build (the same discipline as the Horner hot loop).
	tab := make([][]*big.Int, len(bases))
	for i, base := range bases {
		row := make([]*big.Int, (1<<w)-1)
		row[0] = base
		for d := 1; d < len(row); d++ {
			row[d] = new(big.Int)
			tmp.Mul(row[d-1], base)
			quo.QuoRem(tmp, b.p, row[d])
		}
		tab[i] = row
	}
	windows := (maxBits + int(w) - 1) / int(w)
	for wi := windows - 1; wi >= 0; wi-- {
		if acc.Cmp(one) != 0 {
			for s := uint(0); s < w; s++ {
				tmp.Mul(acc, acc)
				quo.QuoRem(tmp, b.p, acc)
			}
		}
		off := wi * int(w)
		for i, e := range exps {
			if d := windowDigit(e, off, w); d != 0 {
				tmp.Mul(acc, tab[i][d-1])
				quo.QuoRem(tmp, b.p, acc)
			}
		}
	}
	return acc
}

// pippenger computes Π bases[i]^exps[i] by bucket accumulation: per
// window level, each base lands in the bucket of its digit and the
// buckets collapse with the descending running-product trick — no
// per-base tables, ~one multiplication per term per level. Window
// levels only touch their own buckets, so large term counts compute
// them on multiple cores (parallel.go) and combine with the same
// squaring chain the sequential loop runs; modular arithmetic is
// exact, so both orders yield the identical residue.
func (b *ModP) pippenger(bases, exps []*big.Int) *big.Int {
	maxBits := 0
	for _, e := range exps {
		if l := e.BitLen(); l > maxBits {
			maxBits = l
		}
	}
	w := pippengerWindow(len(bases))
	windows := (maxBits + int(w) - 1) / int(w)
	acc := big.NewInt(1)
	if windows < 1 {
		return acc
	}
	tmp := new(big.Int)
	quo := new(big.Int)
	if workers := multiExpWorkers(len(bases)); workers > 1 && windows > 1 {
		levels := make([]*big.Int, windows)
		runWindows(windows, workers, func(wi int) {
			levels[wi] = b.pippengerLevel(bases, exps, wi, w)
		})
		for wi := windows - 1; wi >= 0; wi-- {
			if acc.Cmp(one) != 0 {
				for s := uint(0); s < w; s++ {
					tmp.Mul(acc, acc)
					quo.QuoRem(tmp, b.p, acc)
				}
			}
			tmp.Mul(acc, levels[wi])
			quo.QuoRem(tmp, b.p, acc)
		}
		return acc
	}
	for wi := windows - 1; wi >= 0; wi-- {
		if acc.Cmp(one) != 0 {
			for s := uint(0); s < w; s++ {
				tmp.Mul(acc, acc)
				quo.QuoRem(tmp, b.p, acc)
			}
		}
		tmp.Mul(acc, b.pippengerLevel(bases, exps, wi, w))
		quo.QuoRem(tmp, b.p, acc)
	}
	return acc
}

// pippengerLevel computes one window level Π_d (Π_{digit=d} base)^d.
// It allocates its own buckets and scratch, so levels are safe to run
// concurrently.
func (b *ModP) pippengerLevel(bases, exps []*big.Int, wi int, w uint) *big.Int {
	buckets := make([]*big.Int, (1<<w)-1)
	tmp := new(big.Int)
	quo := new(big.Int)
	off := wi * int(w)
	for i, e := range exps {
		d := windowDigit(e, off, w)
		if d == 0 {
			continue
		}
		if buckets[d-1] == nil {
			buckets[d-1] = new(big.Int).Set(bases[i])
		} else {
			tmp.Mul(buckets[d-1], bases[i])
			quo.QuoRem(tmp, b.p, buckets[d-1])
		}
	}
	// Σ d·bucket[d] as running products: run = Π_{j≥d} bucket[j],
	// level = Π_d run_d.
	run := big.NewInt(1)
	level := big.NewInt(1)
	for d := len(buckets) - 1; d >= 0; d-- {
		if buckets[d] != nil {
			tmp.Mul(run, buckets[d])
			quo.QuoRem(tmp, b.p, run)
		}
		tmp.Mul(level, run)
		quo.QuoRem(tmp, b.p, level)
	}
	return level
}
