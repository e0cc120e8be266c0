package main

import (
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"scaleshift/internal/query"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// smallPool builds a small data set and a pool with range and k-NN
// variants, plus the oracle over it.
func smallPool(t *testing.T) (*store.Store, *pool, *oracle) {
	t.Helper()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days = 12, 300
	st := store.New()
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	sigma, err := query.SENormScale(st, windowLen, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := poolSpec{vectors: 4, epsSigmas: []float64{0.05, 0.2}, ks: []int{3},
		rangeCopies: 1, knnCopies: 1, boundEvery: 2, limit: 100, noiseRel: 1e-4}
	p := makePool(st, spec, sigma, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
	o, err := buildOracle(st, p)
	if err != nil {
		t.Fatal(err)
	}
	return st, p, o
}

// copyAnswer deep-copies a so a test can corrupt the copy.
func copyAnswer(a answer) answer {
	return answer{Total: a.Total, Matches: append([]match(nil), a.Matches...)}
}

// richVariant returns a variant whose oracle answer has at least two
// rows.
func richVariant(t *testing.T, p *pool, o *oracle, knn bool) (variant, answer) {
	t.Helper()
	for _, v := range p.variants {
		if a := o.expected(p, v); (v.k > 0) == knn && len(a.Matches) >= 2 {
			return v, a
		}
	}
	t.Fatal("no variant with two or more oracle rows")
	return variant{}, answer{}
}

func TestCheckExactAcceptsOracleAnswer(t *testing.T) {
	_, p, o := smallPool(t)
	for _, v := range p.variants {
		want := o.expected(p, v)
		if err := checkExact(copyAnswer(want), want, v.k > 0); err != nil {
			t.Fatalf("variant %+v: %v", v, err)
		}
	}
}

func TestCheckExactRejectsDroppedMatch(t *testing.T) {
	_, p, o := smallPool(t)
	for _, knn := range []bool{false, true} {
		v, want := richVariant(t, p, o, knn)
		got := copyAnswer(want)
		got.Matches = append(got.Matches[:1], got.Matches[2:]...)
		got.Total-- // a server that drops a row reports a consistent total
		if err := checkExact(got, want, v.k > 0); err == nil {
			t.Errorf("knn=%v: answer with one match dropped was accepted", knn)
		}
	}
}

func TestCheckExactRejectsFlippedBit(t *testing.T) {
	_, p, o := smallPool(t)
	for _, knn := range []bool{false, true} {
		v, want := richVariant(t, p, o, knn)
		for field := 0; field < 3; field++ {
			got := copyAnswer(want)
			m := &got.Matches[1]
			f := []*float64{&m.Dist, &m.Scale, &m.Shift}[field]
			// Mantissa bit 40: a change of 2^-12 relative, far above the
			// 1e-9 tolerance for any value this data produces.
			*f = math.Float64frombits(math.Float64bits(*f) ^ 1<<40)
			if err := checkExact(got, want, v.k > 0); err == nil {
				t.Errorf("knn=%v field %d: answer with one float bit flipped was accepted", knn, field)
			}
		}
	}
}

func TestCheckGrowingRejectsDroppedAndFlipped(t *testing.T) {
	st, p, o := smallPool(t)
	v, want := richVariant(t, p, o, false)
	q := p.vectors[v.vec].values
	if err := checkGrowing(copyAnswer(want), want, st, q, v); err != nil {
		t.Fatalf("oracle answer rejected: %v", err)
	}
	dropped := copyAnswer(want)
	dropped.Matches = dropped.Matches[1:]
	dropped.Total--
	if err := checkGrowing(dropped, want, st, q, v); err == nil {
		t.Error("answer with one seed match dropped was accepted")
	}
	flipped := copyAnswer(want)
	flipped.Matches[0].Dist = math.Float64frombits(math.Float64bits(flipped.Matches[0].Dist) ^ 1<<40)
	if err := checkGrowing(flipped, want, st, q, v); err == nil {
		t.Error("answer with one float bit flipped was accepted")
	}
}

// The wire form of every query must parse back to the exact bits the
// oracle searched with.
func TestParamsRoundTripBits(t *testing.T) {
	st, p, _ := smallPool(t)
	for vi, v := range p.variants {
		u, err := url.ParseQuery(strings.TrimPrefix(p.paths[vi], "/search?"))
		if err != nil {
			t.Fatal(err)
		}
		qv := p.vectors[v.vec]
		var got []float64
		if qv.addressed {
			a, _ := strconv.ParseFloat(u.Get("scale"), 64)
			b, _ := strconv.ParseFloat(u.Get("shift"), 64)
			w := make([]float64, len(qv.values))
			if err := st.Window(qv.seq, qv.start, len(w), w, nil); err != nil {
				t.Fatal(err)
			}
			for i := range w {
				got = append(got, a*w[i]+b)
			}
		} else {
			for _, f := range strings.Split(u.Get("values"), ",") {
				x, _ := strconv.ParseFloat(f, 64)
				got = append(got, x)
			}
		}
		for i := range qv.values {
			if math.Float64bits(got[i]) != math.Float64bits(qv.values[i]) {
				t.Fatalf("variant %d value %d: wire %v, oracle %v", vi, i, got[i], qv.values[i])
			}
		}
		if v.k == 0 {
			eps, _ := strconv.ParseFloat(u.Get("eps"), 64)
			if math.Float64bits(eps) != math.Float64bits(v.eps) {
				t.Fatalf("variant %d: eps %v on the wire, %v in the oracle", vi, eps, v.eps)
			}
		}
	}
}
