package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/serve"
	"re2xolap/internal/shard"
	"re2xolap/internal/store"
	"re2xolap/internal/vgraph"
)

// The replay_3shard workload: replayClients clients replay recorded
// exploration sessions against a serve stack (result cache plus
// single-flight) over a 3-shard coordinator. The sessions come from a
// pool recorded once with -write-replay-pool and kept in testdata with
// each query's reference answer. Every client walks the pool's first
// replayShared sessions; the run seed deals the others and orders each
// client's list, so a run replays the whole pool and a third of a
// client's queries come from shared sessions. A pass has each client
// walk its list once on a fresh stack. Untraced loops make as many
// passes as their seconds hold; the traced loop walks once.
const (
	replayObservations = 1000
	replayShards       = 3
	replayClients      = 2
	replayPrivate      = 8 // private sessions per client
	replayShared       = 4 // sessions every client walks
	replaySteps        = 4 // refinements per session after its start
	replayCacheCap     = 256
	replayPoolSeed     = 1
)

func replaySpec() datagen.Spec { return datagen.EurostatLike(replayObservations) }

// replayPool is the recorded session pool.
type replayPool struct {
	Observations int             `json:"observations"`
	Sessions     [][]pooledQuery `json:"sessions"`
}

type pooledQuery struct {
	SPARQL string `json:"sparql"`
	Digest string `json:"digest"`
}

//go:embed testdata/replay_pool.json
var replayPoolFile []byte

// replayQuery is one query of a client's list with its reference answer.
type replayQuery struct {
	text, digest string
	shared       bool
}

// dealReplay deals the pool: every client walks the first shared
// sessions, and the seed deals the private ones and orders each
// client's list. The shared sessions are fixed so that every run does
// the same work and saves the same work through the cache.
func dealReplay(pool *replayPool, seed int64, private, shared int) ([][]replayQuery, error) {
	need := shared + replayClients*private
	if len(pool.Sessions) < need {
		return nil, fmt.Errorf("replay pool has %d sessions, need %d", len(pool.Sessions), need)
	}
	rng := rand.New(rand.NewSource(seed))
	deal := rng.Perm(need - shared)
	lists := make([][]replayQuery, replayClients)
	for c := range lists {
		var mine []int
		for si := 0; si < shared; si++ {
			mine = append(mine, si)
		}
		for _, k := range deal[c*private : (c+1)*private] {
			mine = append(mine, shared+k)
		}
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		for _, si := range mine {
			for _, q := range pool.Sessions[si] {
				lists[c] = append(lists[c], replayQuery{text: q.SPARQL, digest: q.Digest, shared: si < shared})
			}
		}
	}
	return lists, nil
}

// writeReplayPool walks the session pool on a single-node in-process
// engine and records each query with its reference answer: the
// coordinator's over one shard holding the whole store. Byte identity
// across shard counts is the repository's contract; a plain engine
// returns unordered rows in its own order, so against the engine the
// recording checks the row set, and refuses to record a query whose
// rows differ.
func writeReplayPool(path string) error {
	d, err := generate(replaySpec())
	if err != nil {
		return err
	}
	st, _, err := loadStore(d.nt, false)
	if err != nil {
		return err
	}
	ip := endpoint.NewInProcess(st)
	g, err := vgraph.Bootstrap(context.Background(), ip, d.spec.Config())
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	n := replayShared + replayClients*replayPrivate
	walks, err := recordWalks(st, g, d.spec, replayPoolSeed, n, replaySteps)
	if err != nil {
		return err
	}
	one, err := shard.New([]endpoint.Client{ip})
	if err != nil {
		return err
	}
	defer one.Close()
	pool := replayPool{Observations: replayObservations}
	ctx := context.Background()
	for _, w := range walks {
		texts := []string{w.start.ToSPARQL()}
		for _, st := range w.steps {
			texts = append(texts, st.sparql)
		}
		var sess []pooledQuery
		for _, text := range texts {
			want, err := ip.Query(ctx, text)
			if err != nil {
				return err
			}
			got, err := one.Query(ctx, text)
			if err != nil {
				return err
			}
			if rowSet(got) != rowSet(want) {
				return fmt.Errorf("one-shard coordinator and engine disagree on %s", text)
			}
			sess = append(sess, pooledQuery{text, answerDigest(got)})
		}
		pool.Sessions = append(pool.Sessions, sess)
	}
	b, err := json.MarshalIndent(pool, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// replayProbes are the traced run's observers, one per boundary.
type replayProbes struct {
	http, serve, coord, rpc *boundaryStats
	engine                  *engineStats
	top, wire               *transport
}

func newReplayProbes(rec *recorder) *replayProbes {
	return &replayProbes{
		http: newBoundaryStats(), serve: newBoundaryStats(), coord: newBoundaryStats(), rpc: newBoundaryStats(),
		engine: newEngineStats(),
		top:    &transport{base: http.DefaultTransport, rec: rec, name: "http.transport"},
		wire:   &transport{base: http.DefaultTransport, rec: rec, name: "rpc.transport"},
	}
}

func (p *replayProbes) reset() {
	for _, b := range []*boundaryStats{p.http, p.serve, p.coord, p.rpc} {
		b.reset()
	}
	p.engine.reset()
	p.top.received.Store(0)
	p.wire.received.Store(0)
}

// replayStack is the program as the replay workload runs it.
type replayStack struct {
	top     endpoint.Client
	coord   *shard.Coordinator
	servers []*loopback
}

func (s *replayStack) stop() {
	for _, l := range s.servers {
		l.stop()
	}
	s.coord.Close()
	closeIdle()
}

// setupReplay partitions the data into shard stores, serves each shard
// on loopback, and stacks coordinator, serve layer and a loopback
// server on top.
func setupReplay(rec *recorder, d *dataset, p *replayProbes) (*replayStack, setupStats, error) {
	var ss setupStats
	var engObs, rpcObs, coordObs, serveObs, httpObs func(call)
	var top, wire *transport
	if p != nil {
		engObs, rpcObs, coordObs, serveObs, httpObs = p.engine.observe, p.rpc.observe, p.coord.observe, p.serve.observe, p.http.observe
		top, wire = p.top, p.wire
	}
	var before uint64
	if rec != nil {
		before = liveHeap()
	}
	t0 := time.Now()
	part := shard.Partitioner{N: replayShards}
	stores, n, err := store.LoadPartitioned(bytes.NewReader(d.nt), replayShards, part.Shard)
	if err != nil {
		return nil, ss, err
	}
	ss.partition, ss.triples = time.Since(t0), n
	if rec != nil {
		ss.storeBytes = int64(liveHeap()) - int64(before)
	}
	s := &replayStack{}
	backends := make([]endpoint.Client, len(stores))
	for i, st := range stores {
		srv := endpoint.NewClientServer(wrap(rec, endpoint.NewInProcess(st), "shard.engine", engObs))
		lb, err := serveLoopback(serverSpans(rec, "rpc.server", srv.Routes(endpoint.RoutesConfig{})))
		if err != nil {
			s.stopServers()
			return nil, ss, err
		}
		s.servers = append(s.servers, lb)
		hc := endpoint.NewHTTPClient(lb.url, endpoint.WithHTTPClient(newHTTPClient(wire)))
		backends[i] = wrap(rec, hc, "shard.rpc", rpcObs)
	}
	coord, err := shard.New(backends)
	if err != nil {
		s.stopServers()
		return nil, ss, err
	}
	s.coord = coord
	stack := serve.New(wrap(rec, coord, "shard.coordinator", coordObs), serve.WithResultCache(replayCacheCap))
	srv := endpoint.NewClientServer(wrap(rec, stack, "serve", serveObs))
	lb, err := serveLoopback(serverSpans(rec, "http.server", srv.Routes(endpoint.RoutesConfig{})))
	if err != nil {
		s.stop()
		return nil, ss, err
	}
	s.servers = append(s.servers, lb)
	hc := endpoint.NewHTTPClient(lb.url, endpoint.WithHTTPClient(newHTTPClient(top)))
	s.top = wrap(rec, hc, "endpoint.http", httpObs)
	return s, ss, nil
}

func (s *replayStack) stopServers() {
	for _, l := range s.servers {
		l.stop()
	}
}

// replayPasses replays the lists in whole passes, each on a fresh stack
// so that every pass starts with cold caches and does the same work. s
// is the first pass's stack; every stack is stopped on return.
func replayPasses(s *replayStack, d *dataset, lists [][]replayQuery, chk *checker, seconds float64) (loopResult, error) {
	clock := newPassClock(seconds)
	var all []sample
	for pass := 0; clock.another(); pass++ {
		if pass > 0 {
			var err error
			if s, _, err = setupReplay(nil, d, nil); err != nil {
				return loopResult{}, err
			}
		}
		lr, err := replayLoop(nil, s, lists, chk, map[uint64]time.Duration{})
		s.stop()
		if err != nil {
			return loopResult{}, err
		}
		for _, x := range lr.samples {
			x.pass = pass
			all = append(all, x)
		}
	}
	return summarize(all), nil
}

// replayLoop has every client walk its list once. opLat collects each
// traced op's latency by trace, for the cache-hit latency.
func replayLoop(rec *recorder, s *replayStack, lists [][]replayQuery, chk *checker, opLat map[uint64]time.Duration) (loopResult, error) {
	ctx := context.Background()
	lats := make([]map[uint64]time.Duration, len(lists))
	lr, err := closedLoop(len(lists), func(c int, log *clientLog) bool {
		i := len(log.samples)
		if i >= len(lists[c]) {
			return false
		}
		q := lists[c][i]
		t0 := time.Now()
		octx, op := rec.beginOp(ctx, "op")
		res, _, err := endpoint.QueryX(octx, s.top, endpoint.Request{Query: q.text})
		op.end()
		lat := time.Since(t0)
		ok := err == nil
		if err != nil {
			chk.fail(fmt.Sprintf("replay client %d query %d: %v", c, i, err))
		} else {
			ok = chk.expect(fmt.Sprintf("replay client %d query %d", c, i), q.digest, answerDigest(res))
		}
		if rec != nil {
			if lats[c] == nil {
				lats[c] = map[uint64]time.Duration{}
			}
			lats[c][op.ref.trace] = lat
		}
		log.samples = append(log.samples, sample{lat: lat, failed: !ok, id: i})
		return true
	})
	for _, m := range lats {
		for k, v := range m {
			opLat[k] = v
		}
	}
	return lr, err
}

func runReplay(o options) (*report, error) {
	r := newReport()
	d, err := generate(replaySpec())
	if err != nil {
		return nil, err
	}
	var pool replayPool
	if err := json.Unmarshal(replayPoolFile, &pool); err != nil {
		return nil, fmt.Errorf("replay pool: %w", err)
	}
	if pool.Observations != replayObservations {
		return nil, fmt.Errorf("replay pool was recorded at %d observations, not %d", pool.Observations, replayObservations)
	}
	private, shared := replayPrivate, replayShared
	if o.tiny {
		private, shared = 1, 1
	}
	lists, err := dealReplay(&pool, o.seed, private, shared)
	if err != nil {
		return nil, err
	}
	total, sharedN := 0, 0
	for _, l := range lists {
		for _, q := range l {
			total++
			if q.shared {
				sharedN++
			}
		}
	}
	r.facts["datasets"] = datasetFacts([]*dataset{d}, 0)
	r.facts["sessions"] = fmt.Sprintf("%d clients x (%d private + %d shared) sessions, %d queries, %.1f%% from shared sessions",
		replayClients, private, shared, total, 100*float64(sharedN)/float64(total))
	chk := &checker{}
	s, setups, ss, err := repeatSetup(o.setups, func() (*replayStack, setupStats, error) {
		return setupReplay(nil, d, nil)
	}, (*replayStack).stop)
	if err != nil {
		return nil, err
	}
	r.facts["datasets"] = datasetFacts([]*dataset{d}, ss.triples)
	phase := o.seconds
	var heap uint64
	if !o.trace {
		// The input file is not the program's heap; later passes set
		// up from a copy generated again.
		d.nt = nil
		heap = liveHeap()
		if d, err = generate(replaySpec()); err != nil {
			return nil, err
		}
	} else {
		phase = o.seconds / 2
	}
	lr, err := replayPasses(s, d, lists, chk, phase)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		setEndToEnd(r, lr, setups, heap)
		chk.notes(r)
		return r, nil
	}

	rec := newRecorder()
	p := newReplayProbes(rec)
	s, ss, err = setupReplay(rec, d, p)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	p.reset()
	opLat := map[uint64]time.Duration{}
	tr, err := replayLoop(rec, s, lists, chk, opLat)
	if err != nil {
		return nil, err
	}
	r.attempted, r.failed = lr.ops+tr.ops, lr.failed+tr.failed
	layer := newLayerReport(r, rec, tr, lr)
	layer.setup(ss)
	r.notef("store.load_s and vgraph.* read 0: this set-up loads the shards in one partitioned pass (shard.partition_s) and replays recorded SPARQL, so it bootstraps no virtual graph")
	layer.engine(p.engine)
	p.engine.mu.Lock()
	r.set("shard.engine_s", layer.perOp(p.engine.busy))
	p.engine.mu.Unlock()
	replayMetrics(r, layer, p, opLat)
	layer.finish()
	chk.notes(r)
	return r, writeSpans(o, rec)
}

// replayMetrics sets the serve and shard boundary metrics.
func replayMetrics(r *report, l *layerReport, p *replayProbes, opLat map[uint64]time.Duration) {
	sv, co, rpc, top := p.serve, p.coord, p.rpc, p.http
	for _, b := range []*boundaryStats{sv, co, rpc, top} {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	if sv.n > 0 {
		r.set("serve.hit_ratio", float64(sv.hits+sv.coalesced)/float64(sv.n))
	}
	var hitLats []time.Duration
	for op := range sv.hitOps {
		if d, ok := opLat[op]; ok {
			hitLats = append(hitLats, d)
		}
	}
	r.set("serve.hit_p50_ms", ms(quantile(sortDurations(hitLats), 0.5)))
	r.set("serve.executions", l.count(co.n))
	r.set("serve.queue_wait_s", l.perOp(sv.queueWait))
	if sv.queueWait == 0 {
		r.notef("serve.queue_wait_s reads 0: the stack runs without admission control (result cache and single-flight only), so no request queues")
	}
	for _, plan := range []string{"gather", "partial_agg", "bound_join", "colocated"} {
		r.set("shard.plan."+plan, l.count(co.plans[plan]))
	}
	if co.n > 0 {
		r.set("shard.backend_calls_per_exec", float64(rpc.n)/float64(co.n))
	}
	if co.rows > 0 {
		r.set("shard.rows_fetched_per_row", float64(rpc.rows)/float64(co.rows))
	}
	r.set("shard.rpc_s", l.perOp(rpc.busy))
	if top.rows > 0 {
		r.set("endpoint.bytes_per_row", float64(p.top.received.Load())/float64(top.rows))
	}
	var plans string
	for _, k := range sortedKeys(co.plans) {
		plans += fmt.Sprintf(" %s=%d(%.1f%%)", k, co.plans[k], 100*float64(co.plans[k])/float64(max(co.n, 1)))
	}
	r.notef("replay_mix queries=%d cache_hits=%d coalesced=%d hit_share=%.1f%% executions=%d plans:%s hit_samples=%d",
		sv.n, sv.hits, sv.coalesced, 100*float64(sv.hits+sv.coalesced)/float64(max(sv.n, 1)), co.n, plans, len(hitLats))
}
