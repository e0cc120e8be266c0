package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"scaleshift/internal/seqscan"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// floatTol is the per-field tolerance on dist, scale and shift, the
// rule core's own oracle suites use.
const floatTol = 1e-9

// match is one reported or expected answer row.
type match struct {
	Seq   int     `json:"seq"`
	Start int     `json:"start"`
	Dist  float64 `json:"dist"`
	Scale float64 `json:"scale"`
	Shift float64 `json:"shift"`
}

// answer is what one /search response carries that the checker reads.
type answer struct {
	Total   int
	Matches []match
}

// oracle holds the brute-force answers for every vector of a pool:
// one seqscan.Search at the pool's widest ε (narrower ε and cost
// bounds are filters over it, exactly what a narrower Search would
// return) and, for pools with k-NN variants, one seqscan.Nearest at
// the largest k (a smaller k is its prefix: Nearest breaks ties by
// storage order either way).
type oracle struct {
	ranges  [][]seqscan.Result
	nearest [][]seqscan.Result
}

// buildOracle scans st once or twice per pool vector, spread over the
// available CPUs.
func buildOracle(st *store.Store, p *pool) (*oracle, error) {
	o := &oracle{
		ranges:  make([][]seqscan.Result, len(p.vectors)),
		nearest: make([][]seqscan.Result, len(p.vectors)),
	}
	maxEps, maxK := p.maxEps(), p.maxK()
	errs := make([]error, len(p.vectors))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range p.vectors {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			q := p.vectors[i].values
			o.ranges[i], errs[i] = seqscan.Search(st, q, maxEps, nil, nil)
			if errs[i] == nil && maxK > 0 {
				o.nearest[i], errs[i] = seqscan.Nearest(st, q, maxK, nil)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return o, nil
}

// expected returns the exact answer the server owes variant v.
func (o *oracle) expected(p *pool, v variant) answer {
	if v.k > 0 {
		var a answer
		for _, r := range o.nearest[v.vec][:v.k] {
			a.Matches = append(a.Matches, match{r.Seq, r.Start, r.Dist, r.Scale, r.Shift})
		}
		a.Total = len(a.Matches)
		return a
	}
	var a answer
	for _, r := range o.ranges[v.vec] {
		if r.Dist <= v.eps && v.costs.Allow(r.Scale, r.Shift) {
			a.Total++
			if v.limit == 0 || len(a.Matches) < v.limit {
				a.Matches = append(a.Matches, match{r.Seq, r.Start, r.Dist, r.Scale, r.Shift})
			}
		}
	}
	return a
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= floatTol }

func sameFields(g, w match) bool {
	return closeTo(g.Dist, w.Dist) && closeTo(g.Scale, w.Scale) && closeTo(g.Shift, w.Shift)
}

// checkExact compares a response with the oracle's answer: the same
// total, the same rows in the same order, floats within floatTol.  A
// k-NN answer may order rows whose distances tie within floatTol
// either way.
func checkExact(got, want answer, knn bool) error {
	if got.Total != want.Total {
		return fmt.Errorf("total_matches %d, oracle %d", got.Total, want.Total)
	}
	if len(got.Matches) != len(want.Matches) {
		return fmt.Errorf("%d rows returned, oracle %d", len(got.Matches), len(want.Matches))
	}
	for i, g := range got.Matches {
		w := want.Matches[i]
		if g.Seq == w.Seq && g.Start == w.Start {
			if !sameFields(g, w) {
				return fmt.Errorf("row %d (%d,%d): got dist/scale/shift %v/%v/%v, oracle %v/%v/%v",
					i, g.Seq, g.Start, g.Dist, g.Scale, g.Shift, w.Dist, w.Scale, w.Shift)
			}
			continue
		}
		if knn && closeTo(g.Dist, w.Dist) && containsRow(want.Matches, g) {
			continue
		}
		return fmt.Errorf("row %d: got (%d,%d), oracle (%d,%d)", i, g.Seq, g.Start, w.Seq, w.Start)
	}
	return nil
}

func containsRow(rows []match, m match) bool {
	for _, r := range rows {
		if r.Seq == m.Seq && r.Start == m.Start && sameFields(r, m) {
			return true
		}
	}
	return false
}

// checkGrowing checks an answer given while appends were landing.  Every
// returned row is recomputed against final, the store after all acked
// appends (appends only extend sequences, so a window that existed when
// the query ran holds the same values there), and must qualify.  Every
// oracle row over the seed data must be present unless the answer was
// truncated, and a k-NN answer can only have improved on the seed
// answer rank by rank.
func checkGrowing(got, seedWant answer, final *store.Store, q vec.Vector, v variant) error {
	w := make(vec.Vector, len(q))
	for i, g := range got.Matches {
		if err := final.Window(g.Seq, g.Start, len(q), w, nil); err != nil {
			return fmt.Errorf("row %d (%d,%d): %w", i, g.Seq, g.Start, err)
		}
		m := vec.MinDist(q, w)
		if !sameFields(g, match{g.Seq, g.Start, m.Dist, m.Scale, m.Shift}) {
			return fmt.Errorf("row %d (%d,%d): got dist %v, recomputed %v", i, g.Seq, g.Start, g.Dist, m.Dist)
		}
		if v.k == 0 && (m.Dist > v.eps || !v.costs.Allow(m.Scale, m.Shift)) {
			return fmt.Errorf("row %d (%d,%d): dist %v does not qualify at eps %v", i, g.Seq, g.Start, m.Dist, v.eps)
		}
	}
	if v.k > 0 {
		if len(got.Matches) != v.k {
			return fmt.Errorf("%d rows for k=%d", len(got.Matches), v.k)
		}
		for i, g := range got.Matches {
			if g.Dist > seedWant.Matches[i].Dist+floatTol {
				return fmt.Errorf("rank %d dist %v worse than the seed data's %v", i, g.Dist, seedWant.Matches[i].Dist)
			}
		}
		return nil
	}
	if got.Total < seedWant.Total {
		return fmt.Errorf("total_matches %d below the seed data's %d", got.Total, seedWant.Total)
	}
	if got.Total > len(got.Matches) {
		return nil
	}
	for _, s := range seedWant.Matches {
		if !containsRow(got.Matches, s) {
			return fmt.Errorf("seed match (%d,%d) missing", s.Seq, s.Start)
		}
	}
	return nil
}
