package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"re2xolap/internal/bench"
	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/refine"
	"re2xolap/internal/session"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
	"re2xolap/internal/vgraph"
)

// The explore workload runs Algorithm 2 sessions over one loopback
// HTTP node. One op applies a refinement and computes the options of
// the four ExRef kinds on the new result, as an analyst's front-end
// does before showing them. The sessions are walked with walkSeed on
// the single-node in-process engine, which records each step's
// reference answer; the run seed orders them, and a run replays all
// of them in whole passes, so the mix of cheap and expensive steps is
// the same in every run.
const (
	walkSeed            = 1
	exploreObservations = 5000
	exploreWalks        = 24
	exploreSteps        = 6
)

// refineKinds are the ExRef kinds an op offers, in display order.
var refineKinds = []refine.Kind{refine.KindDisaggregate, refine.KindTopK, refine.KindPercentile, refine.KindSimilarity}

func exploreSpec(o options) datagen.Spec {
	if o.tiny {
		return datagen.EurostatLike(2000)
	}
	return datagen.EurostatLike(exploreObservations)
}

// capture keeps the last answer that passed through it so the checker
// can compare it after the op. It is the one wrapper an untraced
// explore run has inside the program: one pointer store per query.
type capture struct {
	inner endpoint.Client
	last  atomic.Pointer[sparql.Results]
}

func (c *capture) Unwrap() endpoint.Client { return c.inner }

func (c *capture) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, endpoint.Request{Query: q})
	return res, err
}

func (c *capture) QueryX(ctx context.Context, req endpoint.Request) (*sparql.Results, endpoint.QueryMeta, error) {
	res, meta, err := endpoint.QueryX(ctx, c.inner, req)
	c.last.Store(res)
	return res, meta, err
}

// walkStep is one recorded refinement: which option of which kind the
// analyst picked, the refined query's SPARQL and its reference answer.
type walkStep struct {
	kind   refine.Kind
	index  int
	sparql string
	digest string
}

// walk is one recorded session.
type walk struct {
	start       *core.OLAPQuery
	startDigest string
	steps       []walkStep
}

// options computes the options of every kind for the session's current
// result.
func sessionOptions(ctx context.Context, rec *recorder, s *session.Session) (map[refine.Kind][]refine.Refinement, error) {
	out := make(map[refine.Kind][]refine.Refinement, len(refineKinds))
	for _, k := range refineKinds {
		_, sp := rec.begin(ctx, "refine."+string(k))
		opts, err := s.Options(ctx, k)
		sp.end()
		if err != nil {
			return nil, err
		}
		out[k] = opts
	}
	return out, nil
}

// recordWalks walks n seeded sessions on the single-node in-process
// engine and records each choice with its reference answer. Starting
// queries come from synthesis over seeded size-2 examples.
func recordWalks(st *store.Store, g *vgraph.Graph, spec datagen.Spec, seed int64, n, steps int) ([]walk, error) {
	ctx := context.Background()
	ref := &capture{inner: endpoint.NewInProcess(st)}
	eng := core.NewEngine(ref, g, spec.Config())
	d := &bench.Dataset{Spec: spec, Store: st, Graph: g}
	rng := rand.New(rand.NewSource(seed))
	var walks []walk
	for tries := 0; len(walks) < n && tries < 20*n; tries++ {
		ex, ok := d.SampleExample(rng, 2)
		if !ok {
			continue
		}
		cands, err := eng.Synthesize(ctx, core.Keywords(ex...))
		if err != nil {
			return nil, fmt.Errorf("synthesize %v: %w", ex, err)
		}
		if len(cands) == 0 {
			continue
		}
		sess := session.New(eng, g)
		w := walk{start: cands[rng.Intn(len(cands))].Query}
		if _, err := sess.Start(ctx, w.start); err != nil {
			return nil, err
		}
		w.startDigest = answerDigest(ref.last.Load())
		for len(w.steps) < steps {
			opts, err := sessionOptions(ctx, nil, sess)
			if err != nil {
				return nil, err
			}
			first := rng.Intn(len(refineKinds))
			var st walkStep
			for j := 0; j < len(refineKinds); j++ {
				k := refineKinds[(first+j)%len(refineKinds)]
				if len(opts[k]) > 0 {
					st = walkStep{kind: k, index: rng.Intn(len(opts[k]))}
					break
				}
			}
			if st.kind == "" {
				break
			}
			r := opts[st.kind][st.index]
			if _, err := sess.Apply(ctx, r); err != nil {
				return nil, err
			}
			st.sparql = r.Query.ToSPARQL()
			st.digest = answerDigest(ref.last.Load())
			w.steps = append(w.steps, st)
		}
		if len(w.steps) > 0 {
			walks = append(walks, w)
		}
	}
	if len(walks) == 0 {
		return nil, fmt.Errorf("no session could be walked")
	}
	return walks, nil
}

// exploreStack is the program as the explore workload runs it: a store
// served over loopback HTTP, bootstrapped through the HTTP client.
type exploreStack struct {
	store  *store.Store
	graph  *vgraph.Graph
	engine *core.Engine
	cap    *capture
	srv    *loopback
}

func (s *exploreStack) stop() {
	s.srv.stop()
	closeIdle()
}

// exploreProbes are the traced run's observers.
type exploreProbes struct {
	engine *engineStats
	http   *boundaryStats
	tr     *transport
}

func setupExplore(rec *recorder, d *dataset, p *exploreProbes) (*exploreStack, setupStats, error) {
	var ss setupStats
	t0 := time.Now()
	st, grown, err := loadStore(d.nt, rec != nil)
	if err != nil {
		return nil, ss, err
	}
	ss.load, ss.storeBytes, ss.triples = time.Since(t0), grown, st.Len()
	ip := endpoint.NewInProcess(st)
	var engObs, httpObs func(call)
	var tr *transport
	if p != nil {
		engObs, httpObs, tr = p.engine.observe, p.http.observe, p.tr
	}
	srv := endpoint.NewClientServer(wrap(rec, ip, "sparql.engine", engObs))
	lb, err := serveLoopback(serverSpans(rec, "http.server", srv.Routes(endpoint.RoutesConfig{})))
	if err != nil {
		return nil, ss, err
	}
	hc := endpoint.NewHTTPClient(lb.url, endpoint.WithHTTPClient(newHTTPClient(tr)))
	cp := &capture{inner: wrap(rec, hc, "endpoint.http", httpObs)}
	t1 := time.Now()
	g, err := vgraph.Bootstrap(context.Background(), cp, d.spec.Config())
	if err != nil {
		lb.stop()
		return nil, ss, fmt.Errorf("bootstrap: %w", err)
	}
	ss.bootstrap, ss.queries = time.Since(t1), ip.QueryCount()
	return &exploreStack{store: st, graph: g, engine: core.NewEngine(cp, g, d.spec.Config()), cap: cp, srv: lb}, ss, nil
}

// exploreLoop replays the walks in whole passes. Starting a session is
// not an op: its time is left out of the op rate like the checker's.
func exploreLoop(rec *recorder, s *exploreStack, walks []walk, chk *checker, seconds float64, apply *time.Duration, kinds map[refine.Kind]int) (loopResult, error) {
	clock := newPassClock(seconds)
	ctx := context.Background()
	wi, id := 0, 0
	return closedLoop(1, func(_ int, log *clientLog) bool {
		if wi%len(walks) == 0 {
			if !clock.another() {
				return false
			}
			id = 0
		}
		pass := wi / len(walks)
		w := walks[wi%len(walks)]
		wi++
		sess := session.New(s.engine, s.graph)
		if _, err := sess.Start(ctx, w.start); err != nil {
			log.err = err
			return false
		}
		chk.expect("explore start", w.startDigest, answerDigest(s.cap.last.Load()))
		opts, err := sessionOptions(ctx, nil, sess)
		if err != nil {
			log.err = err
			return false
		}
		for i, st := range w.steps {
			if st.index >= len(opts[st.kind]) {
				chk.fail(fmt.Sprintf("explore step %d: %s offers %d options, recorded pick %d", i, st.kind, len(opts[st.kind]), st.index))
				log.samples = append(log.samples, sample{failed: true, pass: pass, id: id})
				return true
			}
			r := opts[st.kind][st.index]
			t0 := time.Now()
			octx, op := rec.beginOp(ctx, "op")
			actx, sp := rec.begin(octx, "session.apply")
			_, err := sess.Apply(actx, r)
			*apply += sp.end()
			if err == nil {
				opts, err = sessionOptions(octx, rec, sess)
			}
			op.end()
			lat := time.Since(t0)
			ok := err == nil
			if err != nil {
				chk.fail(fmt.Sprintf("explore step %d: %v", i, err))
			} else {
				ok = chk.expect(fmt.Sprintf("explore step %d sparql", i), st.sparql, r.Query.ToSPARQL()) &&
					chk.expect(fmt.Sprintf("explore step %d answer", i), st.digest, answerDigest(s.cap.last.Load()))
			}
			kinds[st.kind]++
			log.samples = append(log.samples, sample{lat: lat, failed: !ok, pass: pass, id: id})
			id++
			if !ok {
				return true
			}
		}
		return true
	})
}

func runExplore(o options) (*report, error) {
	r := newReport()
	d, err := generate(exploreSpec(o))
	if err != nil {
		return nil, err
	}
	walksN, steps := exploreWalks, exploreSteps
	if o.tiny {
		walksN, steps = 3, 3
	}
	chk := &checker{}
	phase := o.seconds
	if o.trace {
		phase = o.seconds / 2
	}
	s, setups, ss, err := repeatSetup(o.setups, func() (*exploreStack, setupStats, error) {
		return setupExplore(nil, d, nil)
	}, (*exploreStack).stop)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	walks, err := recordWalks(s.store, s.graph, d.spec, walkSeed, walksN, steps)
	if err != nil {
		s.stop()
		return nil, err
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(walks), func(i, j int) { walks[i], walks[j] = walks[j], walks[i] })
	r.notef("inputs recorded in %.3fs", time.Since(t0).Seconds())
	var heap uint64
	if !o.trace {
		d.nt = nil // the input file is not the program's heap
		heap = liveHeap()
	}
	var apply time.Duration
	kinds := map[refine.Kind]int{}
	lr, err := exploreLoop(nil, s, walks, chk, phase, &apply, kinds)
	s.stop()
	if err != nil {
		return nil, err
	}
	r.facts["datasets"] = datasetFacts([]*dataset{d}, ss.triples)
	r.facts["walks"] = fmt.Sprintf("%d sessions x up to %d steps", len(walks), steps)
	r.notef("refine_mix %s", kindMix(kinds))
	if !o.trace {
		setEndToEnd(r, lr, setups, heap)
		chk.notes(r)
		return r, nil
	}

	rec := newRecorder()
	p := &exploreProbes{engine: newEngineStats(), http: newBoundaryStats(), tr: &transport{base: http.DefaultTransport, rec: rec, name: "http.transport"}}
	s, ss, err = setupExplore(rec, d, p)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	p.engine.reset()
	p.http.reset()
	p.tr.received.Store(0)
	apply = 0
	tr, err := exploreLoop(rec, s, walks, chk, phase, &apply, map[refine.Kind]int{})
	if err != nil {
		return nil, err
	}
	r.attempted, r.failed = lr.ops+tr.ops, lr.failed+tr.failed
	layer := newLayerReport(r, rec, tr, lr)
	layer.setup(ss)
	layer.engine(p.engine)
	r.set("core.queries_per_op", layer.count(p.engine.n))
	r.set("session.apply_s", layer.perOp(apply))
	if p.http.rows > 0 {
		r.set("endpoint.bytes_per_row", float64(p.tr.received.Load())/float64(p.http.rows))
	}
	layer.finish()
	chk.notes(r)
	return r, writeSpans(o, rec)
}

func kindMix(kinds map[refine.Kind]int) string {
	total := 0
	for _, n := range kinds {
		total += n
	}
	out := ""
	for _, k := range refineKinds {
		out += fmt.Sprintf(" %s=%d(%.1f%%)", k, kinds[k], 100*float64(kinds[k])/float64(max(total, 1)))
	}
	return fmt.Sprintf("ops=%d%s", total, out)
}
