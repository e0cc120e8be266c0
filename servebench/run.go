package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scaleshift/internal/query"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

const (
	setupRuns = 3 // setups per untraced run; setup_s is their median
	// Crash-restart cycles per untraced run, from minRecoveries up to
	// maxRecoveries while recoveryBudget lasts; recover_s is their median.
	minRecoveries  = 3
	maxRecoveries  = 11
	recoveryBudget = 3 * time.Second
	shards         = 3
	maxLatePct     = 99
	// A nominal phase is invalid when the generator's own p99 lateness
	// (release time - intended time) exceeds this share of the latency
	// limit: its delay would be a material part of what is judged.
	maxLateShare = 0.25
	phaseTries   = 3
	minStep      = time.Second // shortest ladder step
	ladderRatio  = 1.04        // ladder steps are 4% apart
	// ladderPct is the percentile a ladder step holds to the latency
	// limit.  A step lasts a second or so, too few requests for the
	// nominal phase's tail percentile, which needs all of --seconds.
	ladderPct = 90.0
	// maxGrowth bounds a step's backlog growth (phaseStats.growth): a
	// queue fed more than one grid step above its service rate fails.
	maxGrowth = ladderRatio - 1
	readyWait = 90 * time.Second

	// The data set is the paper's stand-in at one fixed seed, and so
	// are the source windows of each query pool and the request order;
	// --seed draws the disguise of every query, the arrival offsets and
	// the append stream.
	dataSeed = 1
	poolSeed = 1
)

// run is one invocation: one workload, one seed.
type run struct {
	w       workload
	seed    int64
	measure time.Duration
	traced  bool
	bin     string
	work    string
	spans   string
	rng     *rand.Rand
	metrics map[string]metric
	began   time.Time

	st    *store.Store // the seed data, in process, for the oracle
	sigma float64
	pool  *pool
	src   *source
	// nomReps reps at nomRate fill the nominal phase.
	nomReps int
	nomRate float64
	orc     *oracle
	expect  []answer // per variant, over the seed data

	servers []*server
	front   *server // the node or coordinator the generator talks to
	qlane   *lane
	alane   *lane

	appends   []appendOp
	appendPos int
	acked     []bool

	attempted, failed int
	failures          []string
	pending           []pendingCheck // ingest answers, checked once the final data is known
	tr                *tracer
}

type pendingCheck struct {
	variant int
	ans     answer
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "servebench %s seed %d %6.1fs: %s\n", r.w.name, r.seed, time.Since(r.began).Seconds(), fmt.Sprintf(format, args...))
}

func (r *run) shutdown() {
	r.killAll()
	if r.qlane != nil {
		r.qlane.close()
	}
	if r.alane != nil {
		r.alane.close()
	}
	if r.work != "" {
		os.RemoveAll(r.work)
	}
}

func (r *run) killAll() {
	for _, s := range r.servers {
		s.kill()
	}
}

// seedStore generates the data set exactly as ssgen -seed dataSeed does.
func seedStore() (*store.Store, error) {
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days, cfg.Seed = companies, days, dataSeed
	st := store.New()
	_, err := stock.Populate(st, cfg)
	return st, err
}

func (r *run) execute() (*outcome, error) {
	var err error
	if r.st, err = seedStore(); err != nil {
		return nil, err
	}
	// σ is the mean SE-norm of the seed data, computed here once; every
	// request carries an absolute ε in multiples of it.
	if r.sigma, err = query.SENormScale(r.st, windowLen, 1000, dataSeed); err != nil {
		return nil, err
	}
	r.pool = makePool(r.st, r.w.pool, r.sigma, rand.New(rand.NewSource(poolSeed)), r.rng)
	r.src = &source{pool: r.pool, order: rand.New(rand.NewSource(poolSeed)), rng: r.rng}
	if r.w.ingest {
		r.appends = makeAppends(r.st, int(r.w.appendRate*(3*r.measure.Seconds()+40)), r.rng)
		r.acked = make([]bool, len(r.appends))
	}

	setups := setupRuns
	if r.traced {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		r.killAll()
		if err := os.RemoveAll(r.work); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(r.work, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if !r.traced {
		r.set("setup_s", "s", median(setupS))
	}
	r.logf("setup %.3fs (median of %v)", median(setupS), setupS)
	// Serve from restarted processes, which map the saved artifacts, so
	// peak RSS measures serving and not the index build of setup.
	if _, err := r.restart(); err != nil {
		return nil, err
	}

	// The oracle runs outside setup and outside every timed phase.
	t0 := time.Now()
	if r.orc, err = buildOracle(r.st, r.pool); err != nil {
		return nil, err
	}
	r.logf("oracle over %d vectors, %d variants: %.2fs", len(r.pool.vectors), len(r.pool.variants), time.Since(t0).Seconds())
	for _, v := range r.pool.variants {
		r.expect = append(r.expect, r.orc.expected(r.pool, v))
	}
	// The nominal phase sends whole reps over --seconds; its rate is
	// the workload's target rounded to that.
	r.nomReps = r.src.repsFor(r.w.rate, r.measure)
	r.nomRate = float64(r.nomReps*r.pool.repLen()) / r.measure.Seconds()
	r.newLanes()
	r.warm()

	if r.traced {
		if err := r.tracedRun(); err != nil {
			return nil, err
		}
	} else if err := r.measured(); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// setup brings the workload's servers up from a clean work dir:
// artifacts generated, index built, every server ready.
func (r *run) setup() error {
	r.servers = nil
	seed := strconv.FormatInt(dataSeed, 10)
	ssgen, ssserve := filepath.Join(r.bin, "ssgen"), filepath.Join(r.bin, "ssserve")
	if r.w.cluster {
		if err := runTool(r.work, ssgen, "-binary", "-shards", strconv.Itoa(shards), "-seed", seed, "-o", "cluster"); err != nil {
			return err
		}
		var addrs []string
		for i := 0; i < shards; i++ {
			dir := fmt.Sprintf("cluster/shard%d/", i)
			s, err := startServer(fmt.Sprintf("shard%d", i), ssserve, r.work,
				"-store", dir+"store.bin", "-index", dir+"store.idx", "-bulk")
			if err != nil {
				return err
			}
			r.servers = append(r.servers, s)
			addrs = append(addrs, s.addr)
		}
		// The coordinator validates the fleet when it starts, so it starts
		// once every shard is ready, as in a deployment.
		for _, s := range r.servers {
			if err := s.waitReady(readyWait); err != nil {
				return err
			}
		}
		c, err := startServer("coordinator", ssserve, r.work, "-coordinator",
			"-cluster-manifest", "cluster/cluster.ssman", "-shard-addrs", strings.Join(addrs, ","))
		if err != nil {
			return err
		}
		r.servers = append(r.servers, c)
		r.front = c
	} else {
		if err := runTool(r.work, ssgen, "-binary", "-seed", seed, "-o", "store.bin"); err != nil {
			return err
		}
		args := []string{"-store", "store.bin", "-index", "store.idx", "-bulk"}
		if r.w.ingest {
			// The WAL-size trigger (~1 MB, about fifteen seconds of
			// appends) stays above what a run appends between
			// checkpoints: the run asks for its checkpoints itself,
			// between the timed phases (see measured).  Each writes the
			// whole store and index (~60 MB), and with one every second
			// or two the nominal phase's tail moved by half between
			// identical runs with their timing.  Compaction triggers at
			// its default delta size, a couple of times a second.
			args = append(args, "-append", "-wal", "ingest.wal", "-checkpoint", "ingest.ckpt",
				"-checkpoint-wal-bytes", "1000000")
		}
		s, err := startServer("node", ssserve, r.work, args...)
		if err != nil {
			return err
		}
		r.servers = append(r.servers, s)
		r.front = s
	}
	for _, s := range r.servers {
		if err := s.waitReady(readyWait); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) newLanes() {
	if r.qlane != nil {
		r.qlane.close()
	}
	if r.alane != nil {
		r.alane.close()
	}
	if r.w.ingest {
		r.qlane = newLane(r.front.url(), 1)
		r.alane = newLane(r.front.url(), 1)
		return
	}
	r.qlane = newLane(r.front.url(), 2)
	r.alane = nil
}

// send performs one scheduled request.
func (r *run) send(l *lane, o op, res *result) {
	if o.variant >= 0 {
		searchSender(r.pool)(l, o, res)
		return
	}
	req, err := http.NewRequest(http.MethodPost, l.base+"/append", strings.NewReader(r.appends[o.app].body()))
	if err != nil {
		res.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var ack struct {
		Seq int `json:"seq"`
	}
	doRequest(l.client, req, res, &ack)
	res.resp.Total = ack.Seq // the acked sequence id, checked in account
}

// phase plays the next n queries at qrate (plus appends at the nominal
// rate on ingest, over the same span), then accounts every response.
func (r *run) phase(n int, qrate float64, traced bool) (q, a phaseStats) {
	r.qlane.ops = r.src.take(n, qrate)
	d := time.Duration(float64(len(r.qlane.ops)) / qrate * float64(time.Second))
	r.sendPhase(d, traced)
	q = r.account(r.qlane)
	if r.alane != nil {
		a = r.account(r.alane)
	}
	return q, a
}

// sendPhase plays the query lane's ops, plus appends over d on ingest.
func (r *run) sendPhase(d time.Duration, traced bool) {
	lanes := []*lane{r.qlane}
	if r.alane != nil {
		r.alane.ops = nil
		for _, at := range slots(r.rng, r.w.appendRate, int(r.w.appendRate*d.Seconds())) {
			if r.appendPos == len(r.appends) {
				break
			}
			r.alane.ops = append(r.alane.ops, op{at: at, variant: -1, app: r.appendPos})
			r.appendPos++
		}
		lanes = append(lanes, r.alane)
	}
	if traced {
		for _, l := range lanes {
			l.trace = r.tr
		}
	}
	runPhase(r.send, lanes...)
	for _, l := range lanes {
		l.trace = nil
	}
}

// warm sends about a second of requests at the nominal rate (4 to 32)
// before anything is measured, so first-touch page faults and
// connection set-up land outside the timed phases.  Their answers are
// checked like any other.
func (r *run) warm() {
	n := min(32, max(4, int(r.nomRate)))
	r.qlane.ops = nil
	for i, v := range r.pool.rep(0) {
		if i == n {
			break
		}
		r.qlane.ops = append(r.qlane.ops, op{at: time.Duration(float64(i) / r.nomRate * float64(time.Second)), variant: v})
	}
	r.sendPhase(time.Duration(float64(len(r.qlane.ops))/r.nomRate*float64(time.Second)), false)
	r.account(r.qlane)
	if r.alane != nil {
		r.account(r.alane)
	}
}

// account counts a lane's requests and checks its answers: exactly
// against the seed oracle on a read-only workload, later (see
// verifyAfterLoad) on ingest.
func (r *run) account(l *lane) phaseStats {
	for i := range l.res {
		res, o := &l.res[i], l.ops[i]
		r.attempted++
		if !res.ok() {
			r.fail("request %v: %v", o, res.err)
			continue
		}
		if o.variant < 0 {
			if want := r.appends[o.app].seq; res.resp.Total != want {
				r.fail("append %d acked into sequence %d, sent to %d", o.app, res.resp.Total, want)
				continue
			}
			r.acked[o.app] = true
			continue
		}
		got := answer{Total: res.resp.Total, Matches: res.resp.Matches}
		if r.w.ingest {
			r.pending = append(r.pending, pendingCheck{o.variant, got})
			continue
		}
		if err := checkExact(got, r.expect[o.variant], r.pool.variants[o.variant].k > 0); err != nil {
			r.fail("wrong answer to %s: %v", r.pool.describe(o.variant), err)
		}
	}
	return summarize(l.res)
}

// nominal runs the measured phase, retrying when the generator itself
// fell behind its schedule: such a run is reported, not averaged in.
// used is what the server processes spent during it.
func (r *run) nominal(traced bool) (q, a phaseStats, used procStats, err error) {
	for try := 1; try <= phaseTries; try++ {
		before, err := fleetStats(r.servers)
		if err != nil {
			return q, a, used, err
		}
		q, a = r.phase(r.nomReps*r.pool.repLen(), r.nomRate, traced)
		after, err := fleetStats(r.servers)
		if err != nil {
			return q, a, used, err
		}
		late := percentile(append(append([]float64{}, q.late...), a.late...), maxLatePct)
		if late <= maxLateShare*r.w.limitMs {
			used = procStats{cpu: after.cpu - before.cpu, writeBytes: after.writeBytes - before.writeBytes}
			return q, a, used, nil
		}
		r.logf("INVALID phase %d/%d: generator p%d lateness %.2fms > %.1fms; retrying",
			try, phaseTries, maxLatePct, late, maxLateShare*r.w.limitMs)
	}
	return q, a, used, fmt.Errorf("generator fell behind its schedule in %d phases in a row", phaseTries)
}

// measured is the untraced run: the end-to-end metrics.
func (r *run) measured() error {
	failedBefore := r.failed
	q, a, used, err := r.nominal(false)
	if err != nil {
		return err
	}
	nominalHolds := r.holds(r.nomRate, q, r.failed > failedBefore)
	cpu := used.cpu
	ops := len(q.lat) + len(a.lat)
	r.set("query_p50_ms", "ms", percentile(q.lat, 50))
	r.set("query_tail_ms", "ms", percentile(q.lat, tailPct(q.sent)))
	r.set("cpu_ms_per_op", "ms", ms(cpu)/float64(ops))
	r.logf("nominal %.1f req/s: %d queries, p50 %.3fms, p%g %.3fms (%d samples beyond)",
		r.nomRate, len(q.lat), percentile(q.lat, 50), tailPct(q.sent), percentile(q.lat, tailPct(q.sent)),
		int(math.Round(float64(q.sent)*(1-tailPct(q.sent)/100))))
	if r.w.ingest {
		// Not declared metrics: every workload must report every
		// end-to-end metric, and only this one appends.
		r.logf("appends %.0f/s: %d acked, append_p50_ms %.3f, append_tail_ms (p%g) %.3f, write_amp %.2f",
			r.w.appendRate, len(a.lat), percentile(a.lat, 50), tailPct(a.sent), percentile(a.lat, tailPct(a.sent)),
			float64(used.writeBytes)/float64(8*32*len(a.lat)))
	}
	if r.w.ingest {
		// Two checkpoint cycles outside the timed phases: the second
		// rotates the first to .prev and truncates the WAL behind it,
		// and the ladder's appends then form the WAL tail recovery
		// replays.
		for i := 0; i < 2; i++ {
			if err := r.checkpoint(); err != nil {
				return err
			}
		}
	}
	maxRPS, err := r.ladder(cpu/time.Duration(ops), nominalHolds)
	if err != nil {
		return err
	}
	r.set("query_max_rps", "1/s", maxRPS)

	fs, err := fleetStats(r.servers)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", float64(fs.hwmKB)/1024)
	if err := r.spaceAmp(); err != nil {
		return err
	}
	return r.recover()
}

// checkpoint asks the ingest node for a durable checkpoint now.
func (r *run) checkpoint() error {
	req, err := http.NewRequest(http.MethodPost, r.front.url()+"/admin/checkpoint", nil)
	if err != nil {
		return err
	}
	var res result
	doRequest(r.qlane.client, req, &res, nil)
	r.attempted++
	if !res.ok() {
		r.fail("checkpoint: %v", res.err)
	}
	return nil
}

// ladder finds the highest rate on a 4%-step grid whose step holds
// (see holds).  Step 0 is the nominal rate, judged on the nominal phase
// itself.  The search bisects the grid from 0.6 up to 2 times the
// capacity the nominal phase implies: the lower of connections over
// mean round trip and CPUs over CPU per request.  Both err low (round
// trips overlap, and at a low rate the CPU per request carries idle
// overhead), so the knee usually lies above the estimate; when the
// search ends next to the unprobed upper end, it probes on upward.  If
// the nominal rate itself does not hold, the search runs below it.
func (r *run) ladder(cpuPerOp time.Duration, nominalHolds bool) (float64, error) {
	var rtt []float64
	for i := range r.qlane.res {
		rtt = append(rtt, ms(r.qlane.res[i].done-r.qlane.res[i].started))
	}
	capacity := math.Min(float64(r.qlane.conns)/(mean(rtt)/1000),
		float64(runtime.NumCPU())/cpuPerOp.Seconds())
	rate := func(k int) float64 { return r.nomRate * math.Pow(ladderRatio, float64(k)) }
	step := func(x float64) int { return int(math.Floor(math.Log(x/r.nomRate) / math.Log(ladderRatio))) }
	pass := func(k int) bool {
		failedBefore := r.failed
		// Whole reps, so every step sends the pool's exact mix; the count
		// never falls as the rate rises.
		n := r.pool.repLen() * int(math.Ceil(minStep.Seconds()*rate(k)/float64(r.pool.repLen())))
		q, _ := r.phase(n, rate(k), false)
		ok := r.holds(rate(k), q, r.failed > failedBefore)
		time.Sleep(100 * time.Millisecond)
		return ok
	}
	lo, hi := 0, max(1, step(2*capacity)+1)
	hiProbed := false
	if !nominalHolds {
		lo, hi, hiProbed = -1, 0, true
		for !pass(lo) {
			if rate(2*lo) < r.nomRate/16 {
				return 0, fmt.Errorf("ladder: no rate down to %.2f req/s holds", rate(lo))
			}
			lo, hi = 2*lo, lo
		}
	} else if k := step(0.6 * capacity); k > 0 && k < hi {
		if pass(k) {
			lo = k
		} else {
			hi, hiProbed = k, true
		}
	}
	for {
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if pass(mid) {
				lo = mid
			} else {
				hi, hiProbed = mid, true
			}
		}
		if hiProbed {
			return rate(lo), nil
		}
		// The capacity estimate erred low: go on upward, doubling the rate.
		if !pass(hi) {
			return rate(lo), nil
		}
		lo, hi = hi, hi+step(2*r.nomRate)
	}
}

// holds judges a phase at rate against the workload's limit: every
// request answered and right, the p90 latency within the limit, and no
// growing backlog (growth at most maxGrowth).  Backlog is judged by its
// slope, not by how late the last answer came, so the slack neither
// depends on the latency limit nor grows with a step's length.
func (r *run) holds(rate float64, q phaseStats, wrong bool) bool {
	tail := percentile(q.lat, ladderPct)
	ok := q.failed == 0 && !wrong && tail <= r.w.limitMs && q.growth <= maxGrowth
	r.logf("step %.1f req/s, %d requests: p%g %.2fms, backlog growth %.4f, %d failed, holds=%v",
		rate, q.sent, ladderPct, tail, q.growth, q.failed, ok)
	return ok
}

// spaceAmp is the on-disk artifact bytes over the raw value bytes.
//
// It waits (up to 10 s) until no checkpoint is being written, so a
// half-written ".tmp" artifact does not count.
func (r *run) spaceAmp() error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		tmp, err := filepath.Glob(filepath.Join(r.work, "*.tmp"))
		if err != nil {
			return err
		}
		if len(tmp) == 0 {
			break
		}
	}
	b, err := dirBytes(r.work)
	if err != nil {
		return err
	}
	values := r.st.TotalValues()
	for i, ok := range r.acked {
		if ok {
			values += len(r.appends[i].values)
		}
	}
	r.set("space_amp", "ratio", float64(b)/float64(8*values))
	return nil
}

// recover SIGKILLs every server, restarts each on the same artifacts
// (and WAL and checkpoint), and times until all are ready again; then
// it checks that nothing acked was lost and that answers are exact.
func (r *run) recover() error {
	var took []float64
	t0 := time.Now()
	for len(took) < minRecoveries || (len(took) < maxRecoveries && time.Since(t0) < recoveryBudget) {
		d, err := r.restart()
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		took = append(took, d.Seconds())
	}
	r.set("recover_s", "s", median(took))
	r.newLanes()
	return r.verifyAfterLoad()
}

// restart SIGKILLs every server and starts each again with the same
// arguments, returning the time until all are ready.
func (r *run) restart() (time.Duration, error) {
	r.killAll()
	t0 := time.Now()
	// Shards first, then (once they are ready) the front server.
	for _, group := range [][]*server{r.servers[:len(r.servers)-1], {r.front}} {
		for _, s := range group {
			if err := s.start(r.work); err != nil {
				return 0, err
			}
		}
		for _, s := range group {
			if err := s.waitReady(readyWait); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

// verifyAfterLoad runs once the load has stopped: on ingest it reads
// every acked append back bit-exact and builds the final data; then it
// sends every distinct query once and checks the answer exactly.
func (r *run) verifyAfterLoad() error {
	final := r.st
	if r.w.ingest {
		var err error
		if final, err = r.finalStore(); err != nil {
			return err
		}
		if err := r.readBack(final); err != nil {
			return err
		}
		for _, pc := range r.pending {
			v := r.pool.variants[pc.variant]
			if err := checkGrowing(pc.ans, r.expect[pc.variant], final, r.pool.vectors[v.vec].values, v); err != nil {
				r.fail("wrong answer during ingest to %s: %v", r.pool.describe(pc.variant), err)
			}
		}
		r.pending = nil
		orc, err := buildOracle(final, r.pool)
		if err != nil {
			return err
		}
		r.expect = nil
		for _, v := range r.pool.variants {
			r.expect = append(r.expect, orc.expected(r.pool, v))
		}
	}
	// Ingest re-checks every distinct query against the final data; a
	// read-only workload re-checks one variant per vector, enough to
	// show the restarted servers answer exactly.
	r.qlane.ops = nil
	seen := map[int]bool{}
	for v, vr := range r.pool.variants {
		if r.w.ingest || !seen[vr.vec] {
			r.qlane.ops = append(r.qlane.ops, op{variant: v})
			seen[vr.vec] = true
		}
	}
	runPhase(r.send, r.qlane)
	for i := range r.qlane.res {
		res, o := &r.qlane.res[i], r.qlane.ops[i]
		r.attempted++
		if !res.ok() {
			r.fail("after load, request %v: %v", o, res.err)
			continue
		}
		got := answer{Total: res.resp.Total, Matches: res.resp.Matches}
		if err := checkExact(got, r.expect[o.variant], r.pool.variants[o.variant].k > 0); err != nil {
			r.fail("wrong answer after load to %s: %v", r.pool.describe(o.variant), err)
		}
	}
	return nil
}

// finalStore is the seed data plus every acked append, in ack order
// (one connection carries the appends, so ack order is apply order).
func (r *run) finalStore() (*store.Store, error) {
	st, err := seedStore()
	if err != nil {
		return nil, err
	}
	for i, op := range r.appends {
		if !r.acked[i] {
			continue
		}
		if op.name != "" {
			st.AppendSequence(op.name, op.values)
		} else if err := st.AppendValues(op.seq, op.values); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// readBack fetches every sequence that received an acked append through
// GET /window and compares it bit-exact with final; each value lost or
// changed counts as a failed operation.
func (r *run) readBack(final *store.Store) error {
	touched := map[int]bool{}
	for i, op := range r.appends {
		if r.acked[i] {
			touched[op.seq] = true
		}
	}
	c := r.qlane.client
	for seq := range touched {
		n := final.SequenceLen(seq)
		want := make([]float64, n)
		if err := final.Window(seq, 0, n, want, nil); err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/window?seq=%d&start=0&len=%d", r.front.url(), seq, n), nil)
		if err != nil {
			return err
		}
		var res result
		var got struct {
			Values []float64 `json:"values"`
		}
		doRequest(c, req, &res, &got)
		r.attempted++
		if !res.ok() {
			r.fail("read back sequence %d: %v", seq, res.err)
			continue
		}
		lost := 0
		for i, v := range want {
			if i >= len(got.Values) || math.Float64bits(got.Values[i]) != math.Float64bits(v) {
				lost++
			}
		}
		if lost > 0 || len(got.Values) != n {
			r.fail("sequence %d: %d of %d acked values lost or changed, %d values served", seq, lost, n, len(got.Values))
		}
	}
	return nil
}

func (r *run) finish() *outcome {
	for _, f := range r.failures {
		r.logf("FAILED: %s", f)
	}
	if r.failed > 0 {
		r.logf("FAILED %d of %d operations", r.failed, r.attempted)
	}
	return &outcome{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}
