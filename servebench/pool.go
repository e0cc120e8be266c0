package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"scaleshift/internal/core"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
)

// Data shape: the paper's scale, the internal/stock generator at its
// defaults.
const (
	companies = 1000
	days      = 650
	windowLen = 128
	longLen   = 256
)

// qvector is one distinct query sequence of a pool.  A quarter are sent
// addressed (seq/start/scale/shift), which makes a coordinator fetch
// the window from the owner shard first; the rest travel as explicit
// values= carrying noise as well as the disguise.
type qvector struct {
	values       vec.Vector
	addressed    bool
	seq, start   int
	scale, shift float64
}

// variant is one distinct request: a vector plus ε (absolute) or k,
// cost bounds and the response limit.
type variant struct {
	vec     int
	eps     float64
	k       int
	costs   core.CostBounds
	bounded bool
	limit   int
}

// pool is the distinct queries of a run.  Requests are sent in reps: a
// rep holds every (vector, ε) range pair rangeCopies times and every
// (vector, k) pair knnCopies times, so a phase of whole reps sends the
// same multiset of query costs on every seed.  Per-request cost spans
// two orders of magnitude across vectors and ε; a phase that sampled the
// pool at random would measure a different mix each seed.
type pool struct {
	spec     poolSpec
	vectors  []qvector
	variants []variant
	plain    [][]int // per vector, the unbounded range variant per ε level
	bounded  [][]int // per vector, the cost-bounded twin per ε level
	knn      [][]int // per vector, the k-NN variant per k
	paths    []string
}

// poolSpec shapes a pool.
type poolSpec struct {
	vectors     int
	longEvery   int       // every longEvery-th vector has length longLen (0: none)
	epsSigmas   []float64 // range ε as multiples of σ
	ks          []int     // k-NN variants
	rangeCopies int       // copies of each range pair per rep
	knnCopies   int       // copies of each k-NN pair per rep
	boundEvery  int       // one range occurrence in boundEvery carries scale cost bounds (0: none)
	limit       int
	noiseRel    float64 // noise std per value, as a share of the window's SE-norm / √n
}

// makePool draws spec.vectors windows from st with windows, a fixed
// source, and disguises each with a scale, shift and noise drawn from
// rng, the run's seed.  Scale and shift leave a query's matches and
// cost unchanged (that is the paper's point), so every seed sends new
// query values over the same cost profile.
func makePool(st *store.Store, spec poolSpec, sigma float64, windows, rng *rand.Rand) *pool {
	p := &pool{spec: spec}
	for i := 0; i < spec.vectors; i++ {
		n := windowLen
		if spec.longEvery > 0 && i%spec.longEvery == spec.longEvery-1 {
			n = longLen
		}
		seq := windows.Intn(st.NumSequences())
		start := windows.Intn(st.SequenceLen(seq) - n + 1)
		w := make(vec.Vector, n)
		if err := st.Window(seq, start, n, w, nil); err != nil {
			panic(err) // seq and start are drawn inside the store
		}
		a := 0.25 + rng.Float64()*3.75
		b := -20 + rng.Float64()*40
		qv := qvector{values: vec.Apply(w, a, b), addressed: i%4 == 0, seq: seq, start: start, scale: a, shift: b}
		if !qv.addressed {
			sd := spec.noiseRel * math.Sqrt(vec.NormSq(vec.SETransform(w))/float64(n)) * a
			for j := range qv.values {
				qv.values[j] += rng.NormFloat64() * sd
			}
		}
		p.vectors = append(p.vectors, qv)
		var plain, bounded, knn []int
		for _, e := range spec.epsSigmas {
			plain = append(plain, p.add(variant{vec: i, eps: e * sigma, costs: core.UnboundedCosts(), limit: spec.limit}))
			if spec.boundEvery > 0 {
				// Matches of a window disguised by a have scale near 1/a.
				c := core.UnboundedCosts()
				c.ScaleMin, c.ScaleMax = 0.8/a, 1.25/a
				bounded = append(bounded, p.add(variant{vec: i, eps: e * sigma, costs: c, bounded: true, limit: spec.limit}))
			}
		}
		for _, k := range spec.ks {
			knn = append(knn, p.add(variant{vec: i, k: k, costs: core.UnboundedCosts(), limit: spec.limit}))
		}
		p.plain, p.bounded, p.knn = append(p.plain, plain), append(p.bounded, bounded), append(p.knn, knn)
	}
	for _, v := range p.variants {
		p.paths = append(p.paths, "/search?"+p.params(v).Encode())
	}
	return p
}

// describe names variant vi for failure reports.
func (p *pool) describe(vi int) string {
	v := p.variants[vi]
	return fmt.Sprintf("variant %d (vector %d, eps %g, k %d, bounded %v)", vi, v.vec, v.eps, v.k, v.bounded)
}

func (p *pool) add(v variant) int {
	p.variants = append(p.variants, v)
	return len(p.variants) - 1
}

// repLen is the number of requests in one rep.
func (p *pool) repLen() int {
	return len(p.vectors) * (len(p.spec.epsSigmas)*p.spec.rangeCopies + len(p.spec.ks)*p.spec.knnCopies)
}

// rep returns the variants of rep j.  Which range occurrences carry
// cost bounds rotates with j, one in boundEvery overall.
func (p *pool) rep(j int) []int {
	var out []int
	for v := range p.vectors {
		for c := 0; c < p.spec.rangeCopies; c++ {
			occ := j*p.spec.rangeCopies + c
			for l, idx := range p.plain[v] {
				if p.spec.boundEvery > 0 && (v+l+occ)%p.spec.boundEvery == 0 {
					idx = p.bounded[v][l]
				}
				out = append(out, idx)
			}
		}
		for c := 0; c < p.spec.knnCopies; c++ {
			out = append(out, p.knn[v]...)
		}
	}
	return out
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// valuesParam encodes a query vector as the values= parameter.
func valuesParam(vals []float64) string {
	f := make([]string, len(vals))
	for i, x := range vals {
		f[i] = fmtFloat(x)
	}
	return strings.Join(f, ",")
}

// params encodes v.  Floats use the shortest form that parses back to
// the same bits, and ε is always absolute: each server calibrates its
// own σ, so eps_frac would search a different radius on a coordinator
// than on a single node.
func (p *pool) params(v variant) url.Values {
	qv := p.vectors[v.vec]
	u := url.Values{}
	if qv.addressed {
		u.Set("seq", strconv.Itoa(qv.seq))
		u.Set("start", strconv.Itoa(qv.start))
		u.Set("len", strconv.Itoa(len(qv.values)))
		u.Set("scale", fmtFloat(qv.scale))
		u.Set("shift", fmtFloat(qv.shift))
	} else {
		u.Set("values", valuesParam(qv.values))
	}
	if v.k > 0 {
		u.Set("nn", strconv.Itoa(v.k))
	} else {
		u.Set("eps", fmtFloat(v.eps))
	}
	if v.bounded {
		u.Set("scale_min", fmtFloat(v.costs.ScaleMin))
		u.Set("scale_max", fmtFloat(v.costs.ScaleMax))
	}
	u.Set("limit", strconv.Itoa(v.limit))
	return u
}

func (p *pool) maxEps() float64 {
	m := 0.0
	for _, v := range p.variants {
		m = math.Max(m, v.eps)
	}
	return m
}

func (p *pool) maxK() int {
	m := 0
	for _, v := range p.variants {
		if v.k > m {
			m = v.k
		}
	}
	return m
}

// appendOp is one POST /append of the ingest workload.
type appendOp struct {
	seq    int    // target sequence (the new one's id when name is set)
	name   string // set when the append creates a named sequence
	values []float64
}

// makeAppends draws n appends of 32 values: a random existing sequence,
// or one time in fifty a new named sequence.  Values continue a
// geometric random walk from each sequence's last value so they look
// like the seed data.
func makeAppends(st *store.Store, n int, rng *rand.Rand) []appendOp {
	last := make([]float64, st.NumSequences())
	for s := range last {
		v := make(vec.Vector, 1)
		if err := st.Window(s, st.SequenceLen(s)-1, 1, v, nil); err != nil {
			panic(err)
		}
		last[s] = v[0]
	}
	ops := make([]appendOp, n)
	for i := range ops {
		op := appendOp{seq: rng.Intn(len(last))}
		if rng.Intn(50) == 0 {
			op.seq = len(last)
			op.name = fmt.Sprintf("bench-%d", i)
			last = append(last, 1+rng.Float64()*99)
		}
		op.values = make([]float64, 32)
		x := last[op.seq]
		for j := range op.values {
			x *= math.Exp(rng.NormFloat64() * 0.01)
			op.values[j] = x
		}
		last[op.seq] = x
		ops[i] = op
	}
	return ops
}

// body encodes op as the /append JSON request.
func (op appendOp) body() string {
	var b strings.Builder
	if op.name != "" {
		fmt.Fprintf(&b, `{"name":%q,"values":[`, op.name)
	} else {
		fmt.Fprintf(&b, `{"seq":%d,"values":[`, op.seq)
	}
	for i, v := range op.values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fmtFloat(v))
	}
	b.WriteString("]}")
	return b.String()
}
