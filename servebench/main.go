// Command servebench is the repository's serving benchmark.  It builds
// nothing itself (run.sh builds ssserve, ssgen and this program from
// source); it generates the paper-scale data set from --seed, starts
// real ssserve processes on loopback, drives them with an open-loop
// load generator, checks every answer against a brute-force oracle, and
// prints one JSON result line.
//
//	servebench --workload narrow|wide|cluster|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger, measured in a separate
// traced run (see trace.go and layers.go).  A human-readable report
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix and the sizing measured for it on a
// 2-CPU host (nproc 2, go1.24); the rationale for each is in
// BENCHMARK.json.
type workload struct {
	name       string
	pool       poolSpec
	rate       float64 // nominal query rate, req/s
	appendRate float64 // nominal append rate, req/s (ingest)
	limitMs    float64 // ladder latency limit on the ladder tail
	tailPct    float64 // the nominal tail: highest percentile with ≥10 samples beyond it
	appendPct  float64 // the same for appends
	cluster    bool
	ingest     bool
}

var narrowPool = poolSpec{
	vectors: 16, epsSigmas: []float64{0, 0.001, 0.002}, ks: []int{1, 10},
	rangeCopies: 6, knnCopies: 1, limit: 100, noiseRel: 1e-4,
}

// widePool sends the middle ε twice as often as the others.  Latency
// here is multimodal: cost-bounded queries prune early and are cheap,
// and each ε level costs several times the one below; with equal
// weights the median fell in the gap between two modes and moved by a
// third between identical runs.
var widePool = poolSpec{
	vectors: 10, longEvery: 10, epsSigmas: []float64{0.005, 0.01, 0.01, 0.02},
	rangeCopies: 1, boundEvery: 4, limit: 100, noiseRel: 1e-4,
}

var workloads = map[string]workload{
	"narrow": {name: "narrow", pool: narrowPool, rate: 80, limitMs: 50},
	"wide":   {name: "wide", pool: widePool, rate: 20, limitMs: 500},
	// cluster runs narrow's pool through a coordinator, so narrow/cluster
	// on query_p50_ms and query_max_rps is the scatter-gather overhead.
	// On wide's pool a 3-shard coordinator on two CPUs sustains about 10
	// req/s; the few dozen requests a run could send at half that rate
	// gave medians and tails that moved by a quarter to a third between
	// identical runs.  Wide's pool goes through a coordinator in wide's
	// traced run instead (the cluster.* metrics).  The rate is half
	// narrow's: the tail is the k-NN requests, and at 80 req/s how often
	// two of them overlapped on the two CPUs the four servers share moved
	// it by a quarter between runs.  The latency limit is wide's: with
	// 50 ms a step's p90 crossed the limit anywhere from 150 to 300
	// req/s, where the backlog test finds the knee within a grid step or
	// two.
	"cluster": {name: "cluster", pool: narrowPool, rate: 40, limitMs: 500, cluster: true},
	// ingest's latency limit is 500 ms: checkpoint stalls of 100-300 ms
	// put any one-second ladder step's p90 over 50 ms whatever its rate,
	// so only a limit above them lets the ladder find overload.
	"ingest": {name: "ingest", pool: poolSpec{
		vectors: 4, epsSigmas: []float64{0, 0.001, 0.002}, ks: []int{1, 10},
		rangeCopies: 6, knnCopies: 1, limit: 100, noiseRel: 1e-4,
	}, rate: 30, appendRate: 200, limitMs: 500, ingest: true},
}

// tailPct is the highest percentile with at least ten of n samples
// beyond it, the tail every latency is reported at.  With whole reps
// the nominal phase's sample count, and so this percentile, is fixed
// per workload (BENCHMARK.json names it).
func tailPct(n int) float64 { return 100 * (1 - 10/float64(n)) }

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "narrow, wide, cluster or ingest")
	seed := flag.Int64("seed", 1, "seed for the data set, the query pool and the arrival schedule")
	seconds := flag.Int("seconds", 8, "length of the measured nominal-rate phase")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer ledger")
	root := flag.String("root", ".", "repository checkout (work files go under its .bench_build)")
	bin := flag.String("bin", ".bench_build/bin", "directory holding ssserve and ssgen")
	flag.Parse()
	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	r := &run{
		w:       w,
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		bin:     *bin,
		work:    filepath.Join(*root, ".bench_build", fmt.Sprintf("work-%s-%d", w.name, os.Getpid())),
		spans:   filepath.Join(*root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)),
		rng:     rand.New(rand.NewSource(*seed)),
		metrics: map[string]metric{},
		began:   time.Now(),
	}
	out, err := r.execute()
	r.shutdown()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// median returns the middle of xs (mean of the middle two).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
