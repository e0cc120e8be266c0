package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/ckpt"
	"scaleshift/internal/cluster"
	"scaleshift/internal/core"
	"scaleshift/internal/engine"
	"scaleshift/internal/obs"
	"scaleshift/internal/store"
	"scaleshift/internal/vec"
	"scaleshift/internal/wal"
)

// tracedRun is the --trace 1 run: an untraced nominal phase, the same
// phase traced, the wire ledger from the traced phase, then in-process
// replays that time each layer's public calls on the same data and
// pool.  End-to-end numbers never come from here.
func (r *run) tracedRun() error {
	r.tr = newTracer()
	plain, _, _, err := r.nominal(false)
	if err != nil {
		return err
	}
	before, err := r.scrapeAll()
	if err != nil {
		return err
	}
	q, a, _, err := r.nominal(true)
	if err != nil {
		return err
	}
	after, err := r.scrapeAll()
	if err != nil {
		return err
	}
	// The traced phase records every request's spans on its sender
	// goroutine as it completes (see tracer.request).
	r.set("trace.overhead_ms", "ms", percentile(q.lat, 50)-percentile(plain.lat, 50))
	var gather map[int]float64
	if r.w.cluster {
		if gather, err = r.gatherTimes(); err != nil {
			return err
		}
	}
	if err := r.wireLedger(q, a, after.minus(before), gather); err != nil {
		return err
	}
	if err := r.layerReplays(); err != nil {
		return err
	}
	for name, d := range r.tr.selfTimes() {
		r.logf("self time %-36s %10.3fms", name, ms(d))
	}
	if err := r.tr.flush(r.spans); err != nil {
		return err
	}
	r.logf("spans written to %s", r.spans)
	return r.verifyAfterLoad()
}

// wireLedger derives the per-layer metrics the servers report on each
// response and in /metrics, over the traced phase.  On a coordinator,
// gather holds per variant the in-process time to decode and merge the
// shard replies (see gatherTimes).
func (r *run) wireLedger(q, a phaseStats, d scrape, gather map[int]float64) error {
	var env, unacc, plan, probe, verify, cover, bytes []float64
	var cands, results, nodes, pages, verifyNs, n float64
	for i := range r.qlane.res {
		res := &r.qlane.res[i]
		if !res.ok() {
			continue
		}
		w := &res.resp
		rtt, elapsed := ms(res.done-res.started), float64(w.ElapsedNs)/1e6
		p, pr, v := float64(w.Stats.PlanNs)/1e6, float64(w.Stats.ProbeNs)/1e6, float64(w.Stats.VerifyNs)/1e6
		own := p + pr + v
		if w.Coverage != nil {
			// A coordinator's stats sum its shards' plan/probe/verify,
			// which run in parallel.  Its own time is the slowest shard
			// call, as its shard client timed it, plus decoding and
			// merging the replies, timed in process on the same query.
			slowest := 0.0
			for _, sh := range w.Coverage.Shards {
				slowest = math.Max(slowest, float64(sh.ElapsedNs)/1e6)
			}
			own = slowest + gather[r.qlane.ops[i].variant]
		}
		env = append(env, rtt-elapsed)
		unacc = append(unacc, elapsed-own)
		plan, probe, verify = append(plan, p), append(probe, pr), append(verify, v)
		bytes = append(bytes, float64(res.bytes))
		sum := ms(res.started-res.intended) + (rtt - elapsed) + own
		cover = append(cover, sum/ms(res.latency()))
		n++
		cands += float64(w.Stats.Candidates)
		results += float64(w.Stats.Candidates - w.Stats.FalseAlarms - w.Stats.CostRejected)
		nodes += float64(w.Stats.IndexNodeReads)
		pages += float64(w.Stats.DataPageReads)
		verifyNs += float64(w.Stats.VerifyNs)
	}
	if n == 0 {
		return fmt.Errorf("traced phase: no successful query")
	}
	late := append(append([]float64{}, q.late...), a.late...)
	r.set("loadgen.late_p99_ms", "ms", percentile(late, 99))
	r.set("loadgen.wait_p50_ms", "ms", percentile(q.wait, 50))
	r.set("ssserve.envelope_p50_ms", "ms", percentile(env, 50))
	r.set("ssserve.envelope_tail_ms", "ms", percentile(env, tailPct(q.sent)))
	r.set("ssserve.resp_bytes", "B", mean(bytes))
	r.set("ssserve.unaccounted_ms", "ms", percentile(unacc, 50))
	r.set("engine.plan_p50_ms", "ms", percentile(plan, 50))
	probes := d.sum("scaleshift_path_probes_total")
	r.set("engine.rtree_share", "ratio", d[`scaleshift_path_probes_total{path="rtree"}`]/math.Max(probes, 1))
	r.set("engine.scan_share", "ratio", d[`scaleshift_path_probes_total{path="scan"}`]/math.Max(probes, 1))
	r.set("rtree.probe_p50_ms", "ms", percentile(probe, 50))
	r.set("rtree.probe_tail_ms", "ms", percentile(probe, tailPct(q.sent)))
	r.set("rtree.node_reads", "count", nodes/n)
	r.set("rtree.leaf_checks", "count", d["scaleshift_rtree_leaf_checks_total"]/n)
	r.set("rtree.candidates", "count", cands/n)
	r.set("verify.p50_ms", "ms", percentile(verify, 50))
	r.set("verify.tail_ms", "ms", percentile(verify, tailPct(q.sent)))
	r.set("verify.ns_per_candidate", "ns", verifyNs/math.Max(cands, 1))
	r.set("verify.precision", "ratio", results/math.Max(cands, 1))
	r.set("store.data_pages", "count", pages/n)
	r.set("resilience.waits", "count", d["scaleshift_admission_wait_seconds_count"])
	r.set("resilience.shed_frac", "ratio", d.sum("scaleshift_admission_shed_total")/float64(q.sent))
	r.set("ckpt.count", "count", d["scaleshift_checkpoints_total"])
	cov := median(cover)
	r.set("ledger.coverage", "ratio", cov)
	if math.Abs(cov-1) > ledgerTolerance {
		r.fail("layer ledger covers %.3f of the median request's latency, outside 1±%g", cov, ledgerTolerance)
	}
	if r.w.ingest {
		r.logf("traced appends: p50 %.3fms, p%g %.3fms", percentile(a.lat, 50), tailPct(a.sent), percentile(a.lat, tailPct(a.sent)))
	}
	return nil
}

// scrape is a /metrics sample: series name with labels -> value,
// summed over the servers scraped.
type scrape map[string]float64

// sum adds every labelled series of a metric family.
func (s scrape) sum(family string) float64 {
	t := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

func (s scrape) minus(o scrape) scrape {
	d := scrape{}
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

// scrapeAll reads /metrics from every server.
func (r *run) scrapeAll() (scrape, error) {
	total := scrape{}
	for _, s := range r.servers {
		resp, err := http.Get(s.url() + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err == nil {
				total[line[:i]] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// segmentedAppends is the appends per ingest round of segmentedReplay:
// about a second of the ingest workload's nominal rate.
const segmentedAppends = 200

// layerReplays times the public calls of each layer in process, on a
// fresh copy of the seed data under the run's work dir.
func (r *run) layerReplays() error {
	obs.Enable() // as in ssserve, whose metrics layer is always on
	dir := filepath.Join(r.work, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := seedStore()
	if err != nil {
		return err
	}
	storePath := filepath.Join(dir, "store.bin")
	if err := atomicfile.WriteFile(storePath, st.WriteBinary); err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		f, err := os.Open(storePath)
		if err != nil {
			return err
		}
		var lerr error
		d := r.tr.call("store.ReadBinary", func() { _, lerr = store.ReadBinary(bufio.NewReader(f)) })
		f.Close()
		if lerr != nil {
			return lerr
		}
		loads = append(loads, ms(d))
	}
	r.set("store.load_ms", "ms", median(loads))

	opts := core.DefaultOptions()
	opts.WindowLen, opts.Coefficients = windowLen, 3
	var ix *core.Index
	d := r.tr.call("core.NewIndex+BuildBulk", func() {
		if ix, err = core.NewIndex(st, opts); err == nil {
			err = ix.BuildBulk()
		}
	})
	if err != nil {
		return err
	}
	r.set("core.build_s", "s", d.Seconds())
	idxPath := filepath.Join(dir, "store.idx")
	if err := atomicfile.WriteFile(idxPath, ix.WriteBinary); err != nil {
		return err
	}
	ix.Close()
	// Replays run on the mapped artifact, the index a restarted ssserve
	// serves from.
	var opens []float64
	for i := 0; i < 3; i++ {
		if i > 0 {
			ix.Close()
		}
		d := r.tr.call("core.LoadIndexFile", func() { ix, err = core.LoadIndexFile(idxPath, st) })
		if err != nil {
			return err
		}
		opens = append(opens, ms(d))
	}
	r.set("core.open_ms", "ms", median(opens))

	if err := r.coreReplay(ix); err != nil {
		return err
	}
	if err := r.clusterReplay(ix); err != nil {
		return err
	}
	if err := r.segmentedReplay(ix, st); err != nil {
		return err
	}
	return r.walReplay(dir)
}

// searcher is the query surface ssserve serves from, frozen or
// segmented.
type searcher interface {
	SearchPlannedContext(ctx context.Context, q vec.Vector, eps float64, costs core.CostBounds, force engine.PathKind, pool *store.BufferPool, stats *core.SearchStats) ([]core.Match, *engine.Explain, error)
	SearchLongPlannedContext(ctx context.Context, q vec.Vector, eps float64, costs core.CostBounds, force engine.PathKind, stats *core.SearchStats) ([]core.Match, *engine.Explain, error)
	NearestNeighborsWithCostsContext(ctx context.Context, q vec.Vector, k int, costs core.CostBounds, stats *core.SearchStats) ([]core.Match, error)
}

// search runs pool variant v through the call ssserve makes for it,
// inside a span named layer + "." + the method.
func (r *run) search(layer string, ix searcher, v variant, stats *core.SearchStats) (time.Duration, *engine.Explain, error) {
	q := r.pool.vectors[v.vec].values
	ctx := context.Background()
	var ex *engine.Explain
	var err error
	switch {
	case v.k > 0:
		d := r.tr.call(layer+".NearestNeighborsWithCostsContext", func() {
			_, err = ix.NearestNeighborsWithCostsContext(ctx, q, v.k, v.costs, stats)
		})
		return d, nil, err
	case len(q) > windowLen:
		d := r.tr.call(layer+".SearchLongPlannedContext", func() {
			_, ex, err = ix.SearchLongPlannedContext(ctx, q, v.eps, v.costs, engine.PathAuto, stats)
		})
		return d, ex, err
	default:
		d := r.tr.call(layer+".SearchPlannedContext", func() {
			_, ex, err = ix.SearchPlannedContext(ctx, q, v.eps, v.costs, engine.PathAuto, nil, stats)
		})
		return d, ex, err
	}
}

// coreReplay sends one rep of the workload's mix through the frozen
// index, with allocation and GC-CPU accounting around the pass.
func (r *run) coreReplay(ix *core.Index) error {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(samples)
	gc0, all0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	var lat, est []float64
	mix := r.pool.rep(0)
	for _, vi := range mix {
		var stats core.SearchStats
		d, ex, err := r.search("core", ix, r.pool.variants[vi], &stats)
		if err != nil {
			return err
		}
		lat = append(lat, ms(d))
		if ex != nil && stats.Candidates > 0 && ex.EstCandidates > 0 {
			est = append(est, math.Abs(math.Log(ex.EstCandidates/float64(stats.Candidates))))
		}
	}
	runtime.ReadMemStats(&m1)
	metrics.Read(samples)
	n := float64(len(mix))
	r.set("core.search_p50_ms", "ms", percentile(lat, 50))
	r.set("core.allocs_per_query", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	r.set("core.bytes_per_query", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	r.set("core.gc_cpu_frac", "ratio", (samples[0].Value.Float64()-gc0)/math.Max(samples[1].Value.Float64()-all0, 1e-9))
	r.set("engine.est_error", "ln", median(est))
	return nil
}

// segmentedReplay wraps the frozen index in a SegmentedIndex and runs
// three ingest rounds over it: appends (mutating st), searches with the
// delta live, then a checkpoint capture (Compact, then pinning the
// compacted manifest for serialization) and one install.
func (r *run) segmentedReplay(ix *core.Index, st *store.Store) error {
	g, err := core.NewSegmentedFromIndex(ix)
	if err != nil {
		return err
	}
	defer g.Close()
	ops := makeAppends(st, 3*segmentedAppends, rand.New(rand.NewSource(r.seed)))
	var apply, search, compact, capture []float64
	var write func(io.Writer) error
	release := func() {}
	defer func() { release() }()
	for round := 0; round < 3; round++ {
		for _, op := range ops[round*segmentedAppends : (round+1)*segmentedAppends] {
			d := r.tr.call("segmented.AppendValues", func() {
				if op.name != "" {
					_, err = g.AppendSequence(op.name, op.values)
				} else {
					err = g.AppendValues(op.seq, op.values)
				}
			})
			if err != nil {
				return err
			}
			apply = append(apply, ms(d))
		}
		if round == 0 {
			r.set("segmented.delta_windows_end", "count", float64(g.Backlog().DeltaWindows))
		}
		mix := r.pool.rep(round)
		for i := round; i < len(mix); i += 3 {
			v := r.pool.variants[mix[i]]
			var stats core.SearchStats
			d, _, err := r.search("segmented", g, v, &stats)
			if err != nil {
				return err
			}
			search = append(search, ms(d))
		}
		release()
		t0 := time.Now()
		dc := r.tr.call("segmented.Compact", func() { err = g.Compact() })
		if err != nil {
			return err
		}
		r.tr.call("core.SegmentWriter", func() { write, release, err = g.SegmentWriter() })
		if err != nil {
			return err
		}
		compact, capture = append(compact, ms(dc)), append(capture, ms(time.Since(t0)))
	}
	b := g.Backlog()
	r.set("segmented.apply_p50_ms", "ms", percentile(apply, 50))
	r.set("segmented.search_p50_ms", "ms", percentile(search, 50))
	r.set("segmented.compact_ms", "ms", median(compact))
	r.set("segmented.compactions", "count", float64(b.Compactions))
	r.set("segmented.pause_tail_ms", "ms", ms(b.CompactPauseMax))
	r.set("ckpt.capture_tail_ms", "ms", percentile(capture, 100))
	base := filepath.Join(r.work, "layers", "bench.ckpt")
	d := r.tr.call("ckpt.Install", func() {
		err = ckpt.Install(base, ckpt.Meta{Generation: 1, CreatedAt: time.Now()}, st.WriteBinary, write)
	})
	if err != nil {
		return err
	}
	r.set("ckpt.install_ms", "ms", ms(d))
	return nil
}

// walReplay appends to a fresh log on the same filesystem as the
// servers' WAL.
func (r *run) walReplay(dir string) error {
	log, _, err := wal.Open(filepath.Join(dir, "bench.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	fsync := obs.Default.DurationHistogram("scaleshift_wal_fsync_seconds",
		"WAL fsync latency: the durability wait on the append critical path.")
	c0, s0 := fsync.Count(), fsync.Sum()
	io0, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	vals := make([]float64, 32)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	var lat []float64
	const appends = 100
	for i := 0; i < appends; i++ {
		d := r.tr.call("wal.AppendValues", func() { err = log.AppendValues(i%companies, vals) })
		if err != nil {
			return err
		}
		lat = append(lat, ms(d))
	}
	io1, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	r.set("wal.append_p50_ms", "ms", percentile(lat, 50))
	r.set("wal.append_tail_ms", "ms", percentile(lat, 99))
	if c := fsync.Count() - c0; c > 0 {
		r.set("wal.fsync_mean_ms", "ms", float64(fsync.Sum()-s0)/float64(c)/1e6)
	} else {
		return fmt.Errorf("wal: no fsync recorded")
	}
	r.set("wal.bytes_per_append", "B", float64(io1.writeBytes-io0.writeBytes)/appends)
	return nil
}

// clusterReplay drives an in-process cluster.Coordinator over three
// live ssserve shards: the workload's own on cluster, a fleet started
// here otherwise.  It times the frozen index ix on the same queries, for
// cluster.overhead_x, and fetches the same shard URLs directly to weigh
// the shard wire and time the merge alone.
func (r *run) clusterReplay(ix *core.Index) error {
	var shardSrv []*server
	manifest := filepath.Join(r.work, "cluster", "cluster.ssman")
	if r.w.cluster {
		shardSrv = r.servers[:shards]
	} else {
		if err := runTool(r.work, filepath.Join(r.bin, "ssgen"), "-binary", "-shards", strconv.Itoa(shards),
			"-seed", strconv.FormatInt(dataSeed, 10), "-o", "cluster"); err != nil {
			return err
		}
		for i := 0; i < shards; i++ {
			dir := fmt.Sprintf("cluster/shard%d/", i)
			s, err := startServer(fmt.Sprintf("aux-shard%d", i), filepath.Join(r.bin, "ssserve"), r.work,
				"-store", dir+"store.bin", "-index", dir+"store.idx", "-bulk")
			if err != nil {
				return err
			}
			r.servers = append(r.servers, s) // killed with the rest
			shardSrv = append(shardSrv, s)
		}
		for _, s := range shardSrv {
			if err := s.waitReady(readyWait); err != nil {
				return err
			}
		}
	}
	man, err := cluster.LoadManifest(manifest)
	if err != nil {
		return err
	}
	var addrs []string
	for _, s := range shardSrv {
		addrs = append(addrs, s.addr)
	}
	ctx := context.Background()
	coord, err := cluster.NewCoordinator(ctx, cluster.CoordinatorConfig{
		Manifest: man, Addrs: addrs, Registry: obs.NewRegistry(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	// About 24 queries of one rep of the mix keep this phase short.
	mix := r.pool.rep(0)
	stride := max(1, len(mix)/24)
	var single, scatter, rtt, gather, window, merge []float64
	var attempts, calls, wireBytes, weighed float64
	for i := 0; i < len(mix); i += stride {
		v := r.pool.variants[mix[i]]
		qv := r.pool.vectors[v.vec]
		if qv.addressed {
			d := r.tr.call("cluster.Window", func() { _, err = coord.Window(ctx, qv.seq, qv.start, len(qv.values)) })
			if err != nil {
				return err
			}
			window = append(window, ms(d))
		}
		var stats core.SearchStats
		d, _, err := r.search("core", ix, v, &stats)
		if err != nil {
			return err
		}
		single = append(single, ms(d))
		params := r.scatterParams(v)
		var g *cluster.GatherResult
		d = r.tr.call("cluster.Scatter", func() { g = coord.Scatter(ctx, params, v.k, "") })
		if g.Failed > 0 {
			return fmt.Errorf("cluster: %d shards failed", g.Failed)
		}
		scatter = append(scatter, ms(d))
		slowest := 0.0
		for _, o := range g.Coverage {
			rtt = append(rtt, ms(o.Elapsed))
			slowest = math.Max(slowest, ms(o.Elapsed))
			attempts += float64(o.Attempts)
			calls++
		}
		gather = append(gather, ms(d)-slowest)
		if len(merge) < 8 {
			bodies, err := fetchShards(shardSrv, params)
			if err != nil {
				return err
			}
			for _, b := range bodies {
				wireBytes += float64(len(b))
			}
			weighed++
			_, mt, err := r.decodeMerge(bodies, v.k)
			if err != nil {
				return err
			}
			merge = append(merge, mt)
		}
	}
	r.set("cluster.scatter_p50_ms", "ms", percentile(scatter, 50))
	r.set("cluster.shard_rtt_p50_ms", "ms", percentile(rtt, 50))
	r.set("cluster.shard_rtt_tail_ms", "ms", percentile(rtt, 95))
	r.set("cluster.gather_ms", "ms", percentile(gather, 50))
	r.set("cluster.wire_bytes", "B", wireBytes/weighed)
	r.set("cluster.merge_ms", "ms", percentile(merge, 50))
	r.set("cluster.window_ms", "ms", percentile(window, 50))
	r.set("cluster.attempts_per_call", "count", attempts/calls)
	r.set("cluster.overhead_x", "ratio", percentile(scatter, 50)/percentile(single, 50))
	return nil
}

// scatterParams is variant v in the explicit-values form a coordinator
// resolves every query to before it scatters.
func (r *run) scatterParams(v variant) url.Values {
	params := r.pool.params(v)
	for _, k := range []string{"seq", "start", "len", "scale", "shift"} {
		params.Del(k)
	}
	params.Set("values", valuesParam(r.pool.vectors[v.vec].values))
	return params
}

// fetchShards GETs one query from every shard with limit=0, as the
// coordinator does, and returns the reply bodies.
func fetchShards(shardSrv []*server, params url.Values) ([][]byte, error) {
	q := url.Values{}
	for k, vs := range params {
		q[k] = vs
	}
	q.Set("limit", "0")
	bodies := make([][]byte, len(shardSrv))
	for i, s := range shardSrv {
		resp, err := http.Get(s.url() + "/search?" + q.Encode())
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("shard %s: status %d: %s", s.name, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		bodies[i] = body
	}
	return bodies, nil
}

// decodeMerge decodes shard replies as the coordinator's shard client
// does and merges them exactly, timing each part in a span of its own.
// The merge runs on shard-local sequence ids: its cost does not depend
// on the remap.
func (r *run) decodeMerge(bodies [][]byte, knn int) (decodeMs, mergeMs float64, err error) {
	lists := make([][]cluster.WireMatch, len(bodies))
	d := r.tr.call("cluster.decode", func() {
		for i, b := range bodies {
			var w cluster.SearchWire
			if err = json.Unmarshal(b, &w); err != nil {
				return
			}
			lists[i] = w.Matches
		}
	})
	if err != nil {
		return 0, 0, err
	}
	name := "cluster.MergeRange"
	if knn > 0 {
		name = "cluster.MergeKNN"
	}
	m := r.tr.call(name, func() {
		if knn > 0 {
			cluster.MergeKNN(lists, knn)
		} else {
			cluster.MergeRange(lists)
		}
	})
	return ms(d), ms(m), nil
}

// gatherTimes is, per variant of the traced phase, the in-process time
// to decode and merge the workload's shard replies to it: the part of a
// coordinator's own time after its slowest shard call returns.  Each
// reply set is fetched once and timed as the median of three passes.
func (r *run) gatherTimes() (map[int]float64, error) {
	out := map[int]float64{}
	for _, o := range r.qlane.ops {
		if _, ok := out[o.variant]; ok {
			continue
		}
		v := r.pool.variants[o.variant]
		bodies, err := fetchShards(r.servers[:shards], r.scatterParams(v))
		if err != nil {
			return nil, err
		}
		var t []float64
		for i := 0; i < 3; i++ {
			dec, mer, err := r.decodeMerge(bodies, v.k)
			if err != nil {
				return nil, err
			}
			t = append(t, dec+mer)
		}
		out[o.variant] = median(t)
	}
	return out, nil
}
