package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// ledgerTolerance is how far the median request's layer sum (generator
// wait + envelope + plan + probe + verify on a node; wait + envelope +
// slowest shard call + reply decode and merge on a coordinator) may
// stray from its client latency, as a share of that latency, before a
// traced run fails.
const ledgerTolerance = 0.05

// span is one recorded interval.  Times are nanoseconds from the start
// of the run; spans of one request share Req.  Server-reported times
// ride on the round-trip span as counts, not as spans of their own.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Req    int64            `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; flush writes them out when the run
// ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int64
	reqs   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) newReq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// call runs fn inside a span named name, as one request of its own.
func (t *tracer) call(name string, fn func()) time.Duration {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.add(span{Req: t.newReq(), Name: name, Start: int64(start), End: int64(end)})
	return end - start
}

// request records the wire spans of one completed request, from the
// sender goroutine that ran it: a root with the generator wait and the
// HTTP round trip as children.  Recording happens on the request path,
// so the traced phase pays for it.
func (t *tracer) request(r *result, phaseStart time.Time) {
	off := int64(phaseStart.Sub(t.t0))
	req := t.newReq()
	root := t.add(span{Req: req, Name: "request", Start: off + int64(r.intended), End: off + int64(r.done)})
	t.add(span{Parent: root, Req: req, Name: "loadgen.wait", Start: off + int64(r.intended), End: off + int64(r.started)})
	c := map[string]int64{
		"status": int64(r.status), "resp_bytes": int64(r.bytes),
		"elapsed_ns": r.resp.ElapsedNs, "plan_ns": r.resp.Stats.PlanNs,
		"probe_ns": r.resp.Stats.ProbeNs, "verify_ns": r.resp.Stats.VerifyNs,
		"candidates": int64(r.resp.Stats.Candidates), "index_node_reads": int64(r.resp.Stats.IndexNodeReads),
	}
	if r.resp.Coverage != nil {
		for k, sh := range r.resp.Coverage.Shards {
			c["shard"+strconv.Itoa(k)+"_elapsed_ns"] = sh.ElapsedNs
		}
	}
	t.add(span{Parent: root, Req: req, Name: "http.roundtrip", Start: off + int64(r.started), End: off + int64(r.done), Counts: c})
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// flush writes the spans as JSON lines to path.
func (t *tracer) flush(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
