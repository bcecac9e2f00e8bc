package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"re2xolap/internal/datagen"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks datasets and session counts for the package tests.
	tiny bool
	// setups is how many times the program's set-up is repeated; the
	// median is setup_s.
	setups int
	// spansPath, when set, is where a traced run writes its spans.
	spansPath string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produces: the result line, the machine facts
// and the human-readable notes printed before it.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	facts             map[string]any
	notes             []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, facts: map[string]any{}}
}

// set records a metric with the unit its table gives it.
func (r *report) set(name string, v float64) { r.metrics[name] = metric{v, unitOf[name]} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// sample is one completed op as its client saw it. pass and id name
// the op: the pass over the run's inputs it ran in, and its place in
// its client's sequence, the same in every pass.
type sample struct {
	lat      time.Duration
	failed   bool
	pass, id int
	client   int
}

// clientLog is one closed-loop client's record.
type clientLog struct {
	samples []sample
	err     error
}

// loopResult is what a closed loop measured.
type loopResult struct {
	ops, failed int
	samples     []sample
	// lats holds each op's median latency over the passes that ran it,
	// so one op slowed by a collection or a neighbour's burst does not
	// move a percentile.
	lats      []time.Duration
	passes    int
	opsPerSec float64
}

// closedLoop runs clients goroutines; each calls body until it returns
// false.
func closedLoop(clients int, body func(client int, log *clientLog) bool) (loopResult, error) {
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for body(c, &logs[c]) {
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for c, l := range logs {
		if l.err != nil {
			return loopResult{}, l.err
		}
		for _, s := range l.samples {
			s.client = c
			all = append(all, s)
		}
	}
	return summarize(all), nil
}

// summarize reads a loop's samples. The op rate of a pass is, summed
// over clients, the ops a client completed over the time it spent in
// them, so checking answers and starting sessions do not slow it; the
// run's op rate is the median over its passes.
func summarize(samples []sample) loopResult {
	r := loopResult{samples: samples}
	type opKey struct{ client, id int }
	type passKey struct{ pass, client int }
	byOp := map[opKey][]time.Duration{}
	n := map[passKey]int{}
	busy := map[passKey]time.Duration{}
	for _, s := range samples {
		r.ops++
		if s.failed {
			r.failed++
		}
		byOp[opKey{s.client, s.id}] = append(byOp[opKey{s.client, s.id}], s.lat)
		n[passKey{s.pass, s.client}]++
		busy[passKey{s.pass, s.client}] += s.lat
		r.passes = max(r.passes, s.pass+1)
	}
	rates := make([]float64, r.passes)
	for k, c := range n {
		if busy[k] > 0 {
			rates[k.pass] += float64(c) / busy[k].Seconds()
		}
	}
	sort.Float64s(rates)
	if len(rates) > 0 {
		r.opsPerSec = (rates[(len(rates)-1)/2] + rates[len(rates)/2]) / 2
	}
	for _, ls := range byOp {
		r.lats = append(r.lats, medianDuration(ls))
	}
	return r
}

// passClock runs a workload in whole passes over its inputs, so every
// run measures the same mix however fast the program is. It stops at
// the pass boundary nearest the run's seconds, judged by the length of
// the last pass, so a run measures about that long.
type passClock struct {
	limit            time.Duration
	start, passStart time.Time
	passes           int
}

func newPassClock(seconds float64) *passClock {
	return &passClock{limit: time.Duration(seconds * float64(time.Second))}
}

// another is called at each pass boundary and says whether to go on.
func (p *passClock) another() bool {
	now := time.Now()
	if p.passes == 0 {
		p.start = now
	} else if now.Sub(p.start)+now.Sub(p.passStart)/2 >= p.limit {
		return false
	}
	p.passStart = now
	p.passes++
	return true
}

// quantile reads q from sorted samples by linear interpolation between
// closest ranks.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// hdQuantile is the Harrell-Davis estimate of quantile q of sorted: the
// mean of all its values, each weighted by the chance that a beta
// distribution centred on q falls in its rank's interval. Where the
// samples are sparse, as at the edge of a latency tail, it moves less
// than any single closest rank does.
func hdQuantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n < 2 {
		return quantile(sorted, q)
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	const steps = 32 // midpoint rule within each rank's interval
	var sum, total float64
	for i, d := range sorted {
		var w float64
		for j := 0; j < steps; j++ {
			x := (float64(i) + (float64(j)+0.5)/steps) / float64(n)
			w += math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - (la + lb - lab))
		}
		sum += w * float64(d)
		total += w
	}
	return time.Duration(sum / total)
}

func sortDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDuration is the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	return quantile(sortDurations(ds), 0.5)
}

// setEndToEnd fills the end-to-end metrics from an untraced loop: the
// percentiles are Harrell-Davis estimates over the ops' median
// latencies.
func setEndToEnd(r *report, lr loopResult, setups []time.Duration, heap uint64) {
	sorted := sortDurations(lr.lats)
	r.attempted, r.failed = lr.ops, lr.failed
	r.set("setup_s", medianDuration(setups).Seconds())
	r.set("ops_per_s", lr.opsPerSec)
	r.set("p50_ms", ms(hdQuantile(sorted, 0.5)))
	r.set("p90_ms", ms(hdQuantile(sorted, 0.9)))
	r.set("live_heap_mb", float64(heap)/(1<<20))
	failRatio := 0.0
	if lr.ops > 0 {
		failRatio = float64(lr.failed) / float64(lr.ops)
	}
	r.notef("end_to_end samples=%d passes=%d distinct_ops=%d failed=%d fail_ratio=%g (ratio) setups=%d setup_runs_s=%s",
		lr.ops, lr.passes, len(lr.lats), lr.failed, failRatio, len(setups), fmtDurations(setups))
}

func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	return strings.Join(parts, ",")
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// machineFacts records what the numbers were measured on. A run whose
// GOMAXPROCS differs from the core count is flagged: on such a run
// parallel speedups measure nothing.
func machineFacts(r *report, o options) {
	r.facts["nproc"] = runtime.NumCPU()
	r.facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.facts["go"] = runtime.Version()
	r.facts["cpu"] = cpuModel()
	r.facts["seed"] = o.seed
	r.facts["workload"] = o.workload
	r.facts["seconds"] = o.seconds
	r.facts["traced"] = o.trace
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		r.facts["flag"] = fmt.Sprintf("GOMAXPROCS=%d is not the core count %d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
}

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat; ok is false where it is not available.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to other guests since the ticks t0, s0: noise no run can remove.
func stealShare(t0, s0 uint64) float64 {
	t1, s1, ok := cpuTicks()
	if !ok || t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// cpuModel reads the first model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// dataset is one generated dataset: its spec and its N-Triples text,
// the file the program's set-up loads.
type dataset struct {
	spec  datagen.Spec
	nt    []byte
	bytes int
}

func generate(spec datagen.Spec) (*dataset, error) {
	var b bytes.Buffer
	if err := spec.Write(&b); err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	return &dataset{spec: spec, nt: b.Bytes(), bytes: b.Len()}, nil
}

// loopback serves h on 127.0.0.1 until stop, which waits for the
// serving goroutine to end.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{
		url:  "http://" + ln.Addr().String() + "/sparql",
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return l, nil
}

func (l *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// closeIdle drops pooled keep-alive connections to servers a stack
// has stopped.
func closeIdle() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
