package group

import "math/big"

// MultiExp implements Backend: each term runs on crypto/elliptic's
// constant-time ladder (the same path Exp takes for full-width
// scalars), so secret exponents never touch the variable-time
// Jacobian machinery; only the final combination is shared.
func (b *P256Backend) MultiExp(bases []Element, exps []*big.Int) Element {
	if len(bases) != len(exps) {
		panic("group: multiexp bases/exps length mismatch")
	}
	acc := b.Identity()
	for i, base := range bases {
		e := exps[i]
		if e.Sign() < 0 || e.Cmp(b.q) >= 0 {
			e = new(big.Int).Mod(e, b.q)
		}
		acc = b.Mul(acc, b.Exp(base, e))
	}
	return acc
}

// mulEquivalents of the curve operations, used to choose between
// including a full-width term in the shared Jacobian accumulation and
// handing it to crypto/elliptic's (assembly-backed, but per-term)
// ladder. Units are this package's feMul; each constant is the ratio
// of BenchmarkJpDouble, BenchmarkJpAddAffine, BenchmarkJpAdd,
// BenchmarkFeInv and a full-width Exp (BenchmarkMultiExp/exp/k=1) to
// BenchmarkFeMul (DESIGN.md, "Batch verification & multi-exp");
// costNormEntry is the batch normalisation's six products and one
// square per table entry. With them one full-width term goes to the
// ladder and two or more share the chain.
const (
	costDouble     = 11
	costMixedAdd   = 13
	costAdd        = 20
	costNormEntry  = 7
	costInv        = 240
	costScalarMult = 3400
)

// VarTimeMultiExp implements Backend. Generator terms merge into one
// ScalarBaseMult; the remaining terms run through interleaved
// signed-window (wNAF) Straus for small counts or Pippenger buckets
// for large ones, entirely in Jacobian flat-limb coordinates with one
// field inversion at the end (plus one inversion normalizing the
// precomputed tables). Full-width non-generator exponents fall back to
// per-term constant-time ladders when the shared squaring chain they
// would force costs more than the ladder calls.
func (b *P256Backend) VarTimeMultiExp(bases []Element, exps []*big.Int) Element {
	if len(bases) != len(exps) {
		panic("group: multiexp bases/exps length mismatch")
	}
	red, _ := reduceExps(b.q, exps)

	gExp := new(big.Int)
	var pts []*p256Element
	var es []*big.Int
	var combTerms []combTerm
	for i, base := range bases {
		e := red[i]
		if e.Sign() == 0 {
			continue
		}
		pe := b.el(base)
		if pe.infinity() {
			continue
		}
		if pe.fx == b.genFx && pe.fy == b.genFy {
			gExp.Add(gExp, e)
			continue
		}
		// Precompute'd bases with wide exponents ride the comb tables:
		// the full-width digit stream splits across the chunk bases, so
		// the shared chain stays combSpacing doublings long no matter
		// how wide e is, and no per-call table is built for this term.
		if e.BitLen() >= combCutoff {
			if c := b.comb(pe); c != nil {
				combTerms = append(combTerms, combTerm{digits: wnafDigits(e, combW), tab: c})
				continue
			}
		}
		pts = append(pts, pe)
		es = append(es, e)
	}

	var acc jp // accumulator, starts at infinity
	var a ap

	// Unit exponents are bare point additions; peeling them keeps a
	// lone full-width companion term on the per-term ladder path and
	// spares a table for the unit term.
	kept, keptE := pts[:0], es[:0]
	for i, e := range es {
		if e.Cmp(one) == 0 {
			apFromElement(&a, pts[i])
			jpAddAffine(&acc, &a)
			continue
		}
		kept = append(kept, pts[i])
		keptE = append(keptE, e)
	}
	pts, es = kept, keptE

	// Decide which terms share the Jacobian chain. The chain's
	// doubling count is set by the largest included exponent, so a few
	// stray full-width terms among short ones can cost more inside the
	// chain than on per-term ladders. A chain term pays its nonzero
	// digits' mixed additions, its table of odd multiples (one
	// doubling, then Jacobian additions) and the table's share of the
	// batch normalisation — the whole inversion when no short term
	// needs a table of its own.
	smallMax, largeMax, nLarge, smallTables := 0, 0, 0, false
	for _, e := range es {
		l := e.BitLen()
		if l > 96 {
			nLarge++
			if l > largeMax {
				largeMax = l
			}
			continue
		}
		if l > smallMax {
			smallMax = l
		}
		if strausWindow(l) > 2 {
			smallTables = true
		}
	}
	shared := smallMax // doublings the chain runs without the large terms
	if len(combTerms) > 0 && shared < combSpacing {
		shared = combSpacing
	}
	ladderLarge := false
	if nLarge > 0 && len(es) < pippengerCutoff {
		w := int(strausWindow(largeMax))
		entries := 1<<(w-2) - 1 // odd multiples beyond the base itself
		chain := max(largeMax-shared, 0)*costDouble +
			nLarge*(largeMax/(w+1)*costMixedAdd+costDouble+entries*(costAdd+costNormEntry))
		if !smallTables {
			chain += costInv
		}
		ladderLarge = nLarge*costScalarMult < chain
	}
	if ladderLarge {
		kept := pts[:0]
		keptE := es[:0]
		for i, e := range es {
			if e.BitLen() > 96 {
				rx, ry := b.curve.ScalarMult(pts[i].x, pts[i].y, b.scalarBytes(e))
				apFromElement(&a, newP256Element(rx, ry))
				jpAddAffine(&acc, &a)
				continue
			}
			kept = append(kept, pts[i])
			keptE = append(keptE, e)
		}
		pts, es = kept, keptE
	}

	// The shared chain accumulates into a fresh point (its doubling
	// ladder must not touch contributions already merged into acc).
	var chain jp
	switch {
	case len(pts) == 0 && len(combTerms) == 0:
		// nothing in the shared chain
	case len(pts) >= pippengerCutoff:
		b.pippengerJP(&chain, pts, es)
		jpAdd(&acc, &chain)
		if len(combTerms) > 0 {
			var cchain jp
			b.strausJP(&cchain, nil, nil, combTerms)
			jpAdd(&acc, &cchain)
		}
	default:
		b.strausJP(&chain, pts, es, combTerms)
		jpAdd(&acc, &chain)
	}

	gExp.Mod(gExp, b.q)
	if gExp.Sign() != 0 {
		rx, ry := b.curve.ScalarBaseMult(gExp.Bytes())
		apFromElement(&a, newP256Element(rx, ry))
		jpAddAffine(&acc, &a)
	}
	return b.jpToAffine(&acc)
}

// combTerm is one Precompute'd base riding the shared chain: its
// full-width wNAF digit stream, chunked combSpacing digits at a time
// across the precomputed tables, so digit index j·combSpacing+pos is
// served from tab.tab[j] at chain position pos.
type combTerm struct {
	digits []int8
	tab    *p256Comb
}

// strausJP accumulates Π pts[i]^es[i] · Π comb terms into acc (which
// must start at infinity) by interleaved wNAF:
// per-base tables of odd multiples (batch-normalized to affine so the
// inner loop is all mixed additions; the base itself needs none), one shared doubling chain over
// the longest exponent. Comb terms need no table build or
// normalization and cap their chain contribution at combSpacing
// doublings regardless of exponent width.
func (b *P256Backend) strausJP(acc *jp, pts []*p256Element, es []*big.Int, combs []combTerm) {
	type baseTab struct {
		digits []int8
		tab    []ap // odd multiples 1,3,…,2^(w−1)−1
	}
	tabs := make([]baseTab, len(pts))
	var all []jp // every table entry but the bases, for one shared normalization
	maxLen := 0
	for i, pt := range pts {
		w := strausWindow(es[i].BitLen())
		digits := wnafDigits(es[i], w)
		if len(digits) > maxLen {
			maxLen = len(digits)
		}
		n := 1 << (w - 2)
		tab := make([]ap, n)
		apFromElement(&tab[0], pt) // the base is affine already
		if n > 1 {
			var cur, twice jp
			jpFromElement(&cur, pt)
			twice = cur
			jpDouble(&twice) // 2P, for stepping between odd multiples
			for d := 1; d < n; d++ {
				jpAdd(&cur, &twice)
				all = append(all, cur)
			}
		}
		tabs[i] = baseTab{digits: digits, tab: tab}
	}
	if len(combs) > 0 && maxLen < combSpacing {
		maxLen = combSpacing
	}
	aff := b.batchToAffine(all)
	for i := range tabs {
		n := copy(tabs[i].tab[1:], aff)
		aff = aff[n:]
	}

	var neg ap
	for pos := maxLen - 1; pos >= 0; pos-- {
		if !feIsZero(&acc.z) {
			jpDouble(acc)
		}
		for i := range tabs {
			if pos >= len(tabs[i].digits) {
				continue
			}
			d := tabs[i].digits[pos]
			switch {
			case d > 0:
				jpAddAffine(acc, &tabs[i].tab[d>>1])
			case d < 0:
				neg = tabs[i].tab[(-d)>>1]
				feNeg(&neg.y, &neg.y)
				jpAddAffine(acc, &neg)
			}
		}
		if pos >= combSpacing {
			continue
		}
		for ci := range combs {
			digits := combs[ci].digits
			for j := 0; j < combChunks; j++ {
				idx := j*combSpacing + pos
				if idx >= len(digits) {
					break
				}
				d := digits[idx]
				switch {
				case d > 0:
					jpAddAffine(acc, &combs[ci].tab.tab[j][d>>1])
				case d < 0:
					neg = combs[ci].tab.tab[j][(-d)>>1]
					feNeg(&neg.y, &neg.y)
					jpAddAffine(acc, &neg)
				}
			}
		}
	}
}

// pippengerJP accumulates Π pts[i]^es[i] into acc (which must start
// at infinity) by bucket
// accumulation: no per-base tables, ~one mixed addition per term per
// window level plus the running-sum collapse. Window levels are
// independent until the final doubling-chain combination, so large
// term counts fan the levels out across cores (see parallel.go); the
// combination itself is identical either way, keeping parallel and
// sequential results bit-for-bit equal.
func (b *P256Backend) pippengerJP(acc *jp, pts []*p256Element, es []*big.Int) {
	maxBits := 0
	for _, e := range es {
		if l := e.BitLen(); l > maxBits {
			maxBits = l
		}
	}
	w := pippengerWindow(len(pts))
	windows := (maxBits + int(w) - 1) / int(w)
	if windows < 1 {
		return
	}
	if workers := multiExpWorkers(len(pts)); workers > 1 && windows > 1 {
		// Each window's partial sum is computed independently; the
		// doubling chain between windows runs once, sequentially, at
		// the end.
		levels := make([]jp, windows)
		runWindows(windows, workers, func(wi int) {
			b.pippengerLevel(&levels[wi], pts, es, wi, w)
		})
		for wi := windows - 1; wi >= 0; wi-- {
			if !feIsZero(&acc.z) {
				for s := uint(0); s < w; s++ {
					jpDouble(acc)
				}
			}
			jpAdd(acc, &levels[wi])
		}
		return
	}
	var level jp
	for wi := windows - 1; wi >= 0; wi-- {
		if !feIsZero(&acc.z) {
			for s := uint(0); s < w; s++ {
				jpDouble(acc)
			}
		}
		b.pippengerLevel(&level, pts, es, wi, w)
		jpAdd(acc, &level)
	}
}

// pippengerLevel computes one window level's partial sum
// Σ_d d·(Σ_{digit(e_i)=d} P_i) into level (overwritten). It touches
// only its arguments and local state, so levels may run concurrently.
func (b *P256Backend) pippengerLevel(level *jp, pts []*p256Element, es []*big.Int, wi int, w uint) {
	buckets := make([]jp, (1<<w)-1)
	used := make([]bool, len(buckets))
	var a ap
	off := wi * int(w)
	for i, e := range es {
		d := windowDigit(e, off, w)
		if d == 0 {
			continue
		}
		apFromElement(&a, pts[i])
		jpAddAffine(&buckets[d-1], &a)
		used[d-1] = true
	}
	var run jp
	*level = jp{}
	for d := len(buckets) - 1; d >= 0; d-- {
		if used[d] {
			jpAdd(&run, &buckets[d])
		}
		jpAdd(level, &run)
	}
}

// batchToAffine converts Jacobian points to affine with a single field
// inversion per chunk (Montgomery's trick over the Z coordinates).
// Inputs must not be at infinity. Large batches split into per-worker
// chunks — each chunk pays its own inversion, a good trade once the
// saved feMul volume beats one extra ModInverse.
func (b *P256Backend) batchToAffine(pts []jp) []ap {
	if workers := Parallelism(); workers > 1 && len(pts) >= parallelMinBatch {
		out := make([]ap, len(pts))
		chunk := (len(pts) + workers - 1) / workers
		chunks := (len(pts) + chunk - 1) / chunk
		runWindows(chunks, workers, func(ci int) {
			lo := ci * chunk
			hi := lo + chunk
			if hi > len(pts) {
				hi = len(pts)
			}
			b.batchToAffineInto(out[lo:hi], pts[lo:hi])
		})
		return out
	}
	out := make([]ap, len(pts))
	b.batchToAffineInto(out, pts)
	return out
}

// batchToAffineInto normalizes one chunk with a single inversion.
func (b *P256Backend) batchToAffineInto(out []ap, pts []jp) {
	if len(pts) == 0 {
		return
	}
	// prefix[i] = Z_0·…·Z_i
	prefix := make([]fe, len(pts))
	prefix[0] = pts[0].z
	for i := 1; i < len(pts); i++ {
		feMul(&prefix[i], &prefix[i-1], &pts[i].z)
	}
	var run fe // (Z_0·…·Z_i)⁻¹ for the current i
	feInv(&run, &prefix[len(pts)-1])
	var zi, zi2 fe
	for i := len(pts) - 1; i >= 0; i-- {
		if i == 0 {
			zi = run
		} else {
			feMul(&zi, &run, &prefix[i-1]) // Z_i⁻¹
			feMul(&run, &run, &pts[i].z)   // (Z_0·…·Z_{i-1})⁻¹
		}
		feSqr(&zi2, &zi)
		feMul(&out[i].x, &pts[i].x, &zi2)
		feMul(&out[i].y, &pts[i].y, &zi2)
		feMul(&out[i].y, &out[i].y, &zi)
	}
}
