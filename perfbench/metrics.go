package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// endToEnd lists the metrics an untraced run reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, with units. Every
// traced run reports all of them; a layer a workload does not use
// reads 0. Times per op are self times from the span sweep (they add
// up to the op wall together with unattributed_share) unless the name
// says busy_s, or it is session.apply_s, shard.rpc_s or shard.engine_s,
// which sum the wall of every call at that boundary.
var perLayer = []struct{ name, unit string }{
	// Set-up, from the traced set-up.
	{"store.load_s", "s"},
	{"store.bytes_per_triple", "B/triple"},
	{"vgraph.bootstrap_s", "s"},
	{"vgraph.queries", "count"},
	{"shard.partition_s", "s"},
	// ReOLAP synthesis.
	{"core.self_s", "s/op"},
	{"core.queries_per_op", "count/op"},
	{"core.candidates_per_op", "count/op"},
	{"core.witness_hit_ratio", "ratio"},
	{"sparql.keyword_search.n", "count/op"},
	{"sparql.keyword_search.busy_s", "s/op"},
	{"sparql.membership_ask.n", "count/op"},
	{"sparql.membership_ask.busy_s", "s/op"},
	{"sparql.witness.n", "count/op"},
	{"sparql.witness.busy_s", "s/op"},
	{"sparql.witness.p90_ms", "ms"},
	// Engine phases, from QueryMeta.Phases of in-process calls.
	{"sparql.parse_s", "s/op"},
	{"sparql.plan_s", "s/op"},
	{"sparql.join_s", "s/op"},
	{"sparql.aggregate_s", "s/op"},
	{"sparql.sort_s", "s/op"},
	{"sparql.rows_per_op", "count/op"},
	// Exploration sessions.
	{"session.apply_s", "s/op"},
	{"core.execute_self_s", "s/op"},
	{"refine.disaggregate_s", "s/op"},
	{"refine.topk_s", "s/op"},
	{"refine.percentile_s", "s/op"},
	{"refine.similarity_s", "s/op"},
	{"endpoint.http_s", "s/op"},
	{"endpoint.bytes_per_row", "B/row"},
	// Serve stack over the sharded coordinator.
	{"serve.self_s", "s/op"},
	{"serve.hit_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.executions", "count/op"},
	{"serve.queue_wait_s", "s/op"},
	{"shard.plan.gather", "count/op"},
	{"shard.plan.partial_agg", "count/op"},
	{"shard.plan.bound_join", "count/op"},
	{"shard.plan.colocated", "count/op"},
	{"shard.backend_calls_per_exec", "count/exec"},
	{"shard.rows_fetched_per_row", "ratio"},
	{"shard.coord_self_s", "s/op"},
	{"shard.rpc_s", "s/op"},
	{"shard.rpc_overhead_s", "s/op"},
	{"shard.engine_s", "s/op"},
	// Every workload.
	{"unattributed_share", "ratio"},
	{"trace_overhead", "ratio"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, t := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, e := range t {
			m[e.name] = e.unit
		}
	}
	return m
}()

// selfMetric maps a span name to the per-layer metric its self time
// feeds. Span names missing here are gaps: their self time is
// unattributed.
var selfMetric = map[string]string{
	"core.synthesize":     "core.self_s",
	"session.apply":       "core.execute_self_s",
	"refine.disaggregate": "refine.disaggregate_s",
	"refine.topk":         "refine.topk_s",
	"refine.percentile":   "refine.percentile_s",
	"refine.similarity":   "refine.similarity_s",
	"endpoint.http":       "endpoint.http_s",
	"http.transport":      "endpoint.http_s",
	"http.server":         "endpoint.http_s",
	"serve":               "serve.self_s",
	"shard.coordinator":   "shard.coord_self_s",
	"shard.rpc":           "shard.rpc_overhead_s",
	"rpc.transport":       "shard.rpc_overhead_s",
	"rpc.server":          "shard.rpc_overhead_s",
	"sparql.parse":        "sparql.parse_s",
	"sparql.plan":         "sparql.plan_s",
	"sparql.join":         "sparql.join_s",
	"sparql.aggregate":    "sparql.aggregate_s",
	"sparql.sort":         "sparql.sort_s",
}

// gapName explains the unattributed span names.
var gapName = map[string]string{
	"op":            "benchmark glue between layer calls",
	"sparql.engine": "in-process engine time outside the reported phases",
	"shard.engine":  "shard engine time outside the reported phases",
}

// stepStat accumulates one step tag's queries at an engine boundary.
type stepStat struct {
	n, hits int
	busy    time.Duration
	walls   []time.Duration
}

// engineStats collects what in-process engine shims saw.
type engineStats struct {
	mu    sync.Mutex
	steps map[string]*stepStat
	rows  int
	n     int
	busy  time.Duration
}

func newEngineStats() *engineStats { return &engineStats{steps: map[string]*stepStat{}} }

// reset drops what set-up queries left, so only ops are counted.
func (e *engineStats) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.steps, e.rows, e.n, e.busy = map[string]*stepStat{}, 0, 0, 0
}

func (e *engineStats) observe(c call) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.steps[c.step]
	if s == nil {
		s = &stepStat{}
		e.steps[c.step] = s
	}
	s.n++
	s.busy += c.wall
	s.walls = append(s.walls, c.wall)
	if c.res != nil && (c.res.Len() > 0 || c.res.Boolean) {
		s.hits++
	}
	e.rows += c.meta.Rows
	e.n++
	e.busy += c.wall
}

// boundaryStats collects what one kind of shim saw: calls, result
// rows, busy time and the serve and coordinator fields of QueryMeta.
type boundaryStats struct {
	mu        sync.Mutex
	n, rows   int
	busy      time.Duration
	hits      int
	coalesced int
	queueWait time.Duration
	plans     map[string]int
	hitOps    map[uint64]bool // ops answered from the cache or coalesced
}

func newBoundaryStats() *boundaryStats {
	return &boundaryStats{plans: map[string]int{}, hitOps: map[uint64]bool{}}
}

func (b *boundaryStats) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n, b.rows, b.busy, b.hits, b.coalesced, b.queueWait = 0, 0, 0, 0, 0, 0
	b.plans, b.hitOps = map[string]int{}, map[uint64]bool{}
}

func (b *boundaryStats) observe(c call) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
	if c.res != nil {
		b.rows += c.res.Len()
	}
	b.busy += c.wall
	b.queueWait += c.meta.QueueWait
	if c.meta.Plan != "" {
		b.plans[c.meta.Plan]++
	}
	if c.meta.CacheHit || c.meta.Coalesced {
		b.hitOps[c.op] = true
		if c.meta.CacheHit {
			b.hits++
		} else {
			b.coalesced++
		}
	}
}

// layerReport assembles a traced run's per-layer metrics.
type layerReport struct {
	r    *report
	attr attribution
	ops  int
}

// newLayerReport attributes the traced ops and sets trace_overhead from
// the op rates of the traced and the untraced loop.
func newLayerReport(r *report, rec *recorder, traced, untraced loopResult) *layerReport {
	l := &layerReport{r: r, attr: rec.attribute("op"), ops: traced.ops}
	overhead := 0.0
	if untraced.opsPerSec > 0 {
		overhead = 1 - traced.opsPerSec/untraced.opsPerSec
	}
	r.set("trace_overhead", overhead)
	r.notef("trace_overhead untraced_ops_per_s=%.4f traced_ops_per_s=%.4f untraced_samples=%d traced_samples=%d",
		untraced.opsPerSec, traced.opsPerSec, untraced.ops, traced.ops)
	return l
}

func (l *layerReport) perOp(d time.Duration) float64 { return perOp(d, l.ops) }

func (l *layerReport) count(n int) float64 {
	if l.ops == 0 {
		return 0
	}
	return float64(n) / float64(l.ops)
}

func (l *layerReport) setup(ss setupStats) {
	l.r.set("store.load_s", ss.load.Seconds())
	if ss.triples > 0 {
		l.r.set("store.bytes_per_triple", float64(ss.storeBytes)/float64(ss.triples))
	}
	l.r.set("vgraph.bootstrap_s", ss.bootstrap.Seconds())
	l.r.set("vgraph.queries", float64(ss.queries))
	l.r.set("shard.partition_s", ss.partition.Seconds())
}

// engine reports the in-process engine boundary: rows per op and the
// per-step counts, busy times and witness tail.
func (l *layerReport) engine(es *engineStats) {
	es.mu.Lock()
	defer es.mu.Unlock()
	l.r.set("sparql.rows_per_op", l.count(es.rows))
	for tag, name := range map[string]string{
		"keyword-search": "sparql.keyword_search",
		"membership-ask": "sparql.membership_ask",
		"witness":        "sparql.witness",
	} {
		s := es.steps[tag]
		if s == nil {
			s = &stepStat{}
		}
		l.r.set(name+".n", l.count(s.n))
		l.r.set(name+".busy_s", l.perOp(s.busy))
		if tag == "witness" {
			l.r.set(name+".p90_ms", ms(quantile(sortDurations(s.walls), 0.9)))
			if s.n > 0 {
				l.r.set("core.witness_hit_ratio", float64(s.hits)/float64(s.n))
			}
		}
	}
}

// stepMix notes the share of engine queries by step tag.
func stepMix(r *report, es *engineStats) {
	es.mu.Lock()
	defer es.mu.Unlock()
	var mix []string
	for _, t := range sortedKeys(es.steps) {
		mix = append(mix, fmt.Sprintf("%s=%d(%.1f%%)", t, es.steps[t].n, 100*float64(es.steps[t].n)/float64(max(es.n, 1))))
	}
	r.notef("step_mix queries=%d %s", es.n, strings.Join(mix, " "))
}

// finish sets the self-time metrics and unattributed_share, names the
// gaps, and fills every per-layer metric the workload did not touch
// with 0.
func (l *layerReport) finish() {
	sums := map[string]time.Duration{}
	var gaps time.Duration
	var gapParts []string
	for _, n := range sortedKeys(l.attr.self) {
		d := l.attr.self[n]
		if m, ok := selfMetric[n]; ok {
			sums[m] += d
			continue
		}
		gaps += d
		why := gapName[n]
		if why == "" {
			why = "unmapped span"
		}
		gapParts = append(gapParts, fmt.Sprintf("%s=%.2f%% (%s)", n, 100*share(d, l.attr.opWall), why))
	}
	var total time.Duration
	for m, d := range sums {
		l.r.set(m, perOp(d, l.attr.ops))
		total += d
	}
	un := share(gaps, l.attr.opWall)
	l.r.set("unattributed_share", un)
	var parts []string
	for _, m := range sortedKeys(sums) {
		parts = append(parts, fmt.Sprintf("%s=%.6f", m, perOp(sums[m], l.attr.ops)))
	}
	l.r.notef("layers ops=%d op_wall_s=%.6f attributed_s=%.6f unattributed_s=%.6f unattributed_share=%.4f | %s",
		l.attr.ops, perOp(l.attr.opWall, l.attr.ops), perOp(total, l.attr.ops), perOp(gaps, l.attr.ops), un, strings.Join(parts, " "))
	if len(gapParts) > 0 {
		l.r.notef("gaps %s", strings.Join(gapParts, " "))
	}
	if un > 0.05 {
		l.r.notef("unattributed share %.1f%% is above the 5%% target; the gaps line names where it sits", 100*un)
	}
	for _, m := range perLayer {
		if _, ok := l.r.metrics[m.name]; !ok {
			l.r.set(m.name, 0)
		}
	}
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
