package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"re2xolap/internal/bench"
	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/store"
	"re2xolap/internal/vgraph"
)

// The synth workload synthesizes queries from example tuples (ReOLAP,
// Fig 7) on in-process nodes, one client, serve off, each synthesis on
// a fresh core.Engine so keyword matching starts cold as for a new
// analyst. Its inputs are a fixed pool of examples, poolPerCell per
// (dataset, size) cell, drawn once with poolSeed, so every answer has
// a reference in testdata. A run synthesizes the whole pool, in seeded
// order, in whole passes: a few dbpedia size-4 examples take seconds
// each (the witness tail), and a run that drew a subset would swing
// with whether it drew them.
const (
	synthObservations = 2000
	poolSeed          = 1
	poolPerCell       = 40
)

var synthSizes = []int{1, 2, 3, 4}

// synthData generates the eurostat- and dbpedia-shaped datasets.
func synthData() ([]*dataset, error) {
	var data []*dataset
	for _, spec := range []datagen.Spec{datagen.EurostatLike(synthObservations), datagen.DBpediaLike(synthObservations)} {
		d, err := generate(spec)
		if err != nil {
			return nil, err
		}
		data = append(data, d)
	}
	return data, nil
}

// synthNode is one dataset's in-process node.
type synthNode struct {
	spec   datagen.Spec
	store  *store.Store
	client endpoint.Client
	graph  *vgraph.Graph
}

// setupStats is what one program set-up measured about itself.
type setupStats struct {
	load, bootstrap, partition time.Duration
	triples                    int
	storeBytes                 int64 // heap growth over the loads; traced set-ups only
	queries                    int64 // bootstrap queries
}

// loadStore is the program's load step: parse and index N-Triples.
// When measure is set it also reports the heap the store holds.
func loadStore(nt []byte, measure bool) (*store.Store, int64, error) {
	var before uint64
	if measure {
		before = liveHeap()
	}
	st := store.New()
	if _, err := st.Load(bytes.NewReader(nt)); err != nil {
		return nil, 0, err
	}
	var grown int64
	if measure {
		grown = int64(liveHeap()) - int64(before)
	}
	return st, grown, nil
}

// setupSynth loads and bootstraps every synth dataset in process.
func setupSynth(rec *recorder, data []*dataset, observe func(call)) ([]*synthNode, setupStats, error) {
	var ss setupStats
	var nodes []*synthNode
	for _, d := range data {
		t0 := time.Now()
		st, grown, err := loadStore(d.nt, rec != nil)
		if err != nil {
			return nil, ss, err
		}
		ss.load += time.Since(t0)
		ss.storeBytes += grown
		ss.triples += st.Len()
		ip := endpoint.NewInProcess(st)
		c := wrap(rec, ip, "sparql.engine", observe)
		t1 := time.Now()
		g, err := vgraph.Bootstrap(context.Background(), ip, d.spec.Config())
		if err != nil {
			return nil, ss, fmt.Errorf("bootstrap %s: %w", d.spec.Name, err)
		}
		ss.bootstrap += time.Since(t1)
		ss.queries += ip.QueryCount()
		nodes = append(nodes, &synthNode{spec: d.spec, store: st, client: c, graph: g})
	}
	return nodes, ss, nil
}

// synthExample is one pool entry.
type synthExample struct {
	key      string
	node     int
	keywords []string
}

// synthPool draws the fixed example pool, cell by cell.
func synthPool(nodes []*synthNode) [][]synthExample {
	var cells [][]synthExample
	for ni, n := range nodes {
		d := &bench.Dataset{Spec: n.spec, Store: n.store, Graph: n.graph}
		drawn := d.SampleExamples(poolSeed, synthSizes, poolPerCell)
		for _, size := range synthSizes {
			var cell []synthExample
			for i, kws := range drawn[size] {
				cell = append(cell, synthExample{key: fmt.Sprintf("%s/%d/%d", n.spec.Name, size, i), node: ni, keywords: kws})
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// synthOrder is the run's input sequence: the first perCell examples
// of every cell in seeded order.
func synthOrder(cells [][]synthExample, seed int64, perCell int) []synthExample {
	var all []synthExample
	for _, c := range cells {
		all = append(all, c[:min(perCell, len(c))]...)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// synthLoop synthesizes the whole order in passes. slow, when set,
// collects each example's latencies.
func synthLoop(rec *recorder, nodes []*synthNode, order []synthExample, ref map[string]string, chk *checker,
	seconds float64, cands *int, slow map[string][]time.Duration) (loopResult, error) {
	clock := newPassClock(seconds)
	return closedLoop(1, func(_ int, log *clientLog) bool {
		k := len(log.samples)
		if k%len(order) == 0 && !clock.another() {
			return false
		}
		ex := order[k%len(order)]
		n := nodes[ex.node]
		t0 := time.Now()
		ctx, op := rec.beginOp(context.Background(), "op")
		eng := core.NewEngine(n.client, n.graph, n.spec.Config())
		ctx, sp := rec.begin(ctx, "core.synthesize")
		got, err := eng.Synthesize(ctx, core.Keywords(ex.keywords...))
		sp.end()
		op.end()
		lat := time.Since(t0)
		ok := err == nil
		if err != nil {
			chk.fail(fmt.Sprintf("%s: %v", ex.key, err))
		} else {
			*cands += len(got)
			ok = chk.expect(ex.key, ref[ex.key], candidatesDigest(got))
		}
		log.samples = append(log.samples, sample{lat: lat, failed: !ok, pass: k / len(order), id: k % len(order)})
		if slow != nil {
			slow[ex.key] = append(slow[ex.key], lat)
		}
		return true
	})
}

func runSynth(o options) (*report, error) {
	r := newReport()
	data, err := synthData()
	if err != nil {
		return nil, err
	}
	ref, err := parseDigests(synthDigestFile)
	if err != nil {
		return nil, err
	}
	chk := &checker{}
	stop := func([]*synthNode) {}

	phase := o.seconds
	if o.trace {
		phase = o.seconds / 2
	}
	nodes, setups, ss, err := repeatSetup(o.setups, func() ([]*synthNode, setupStats, error) {
		return setupSynth(nil, data, nil)
	}, stop)
	if err != nil {
		return nil, err
	}
	cells := synthPool(nodes)
	perCell := poolPerCell
	if o.tiny {
		perCell = 2
	}
	order := synthOrder(cells, o.seed, perCell)
	var heap uint64
	if !o.trace {
		for _, d := range data {
			d.nt = nil // the input files are not the program's heap
		}
		heap = liveHeap()
	}
	var cands int
	slow := map[string][]time.Duration{}
	lr, err := synthLoop(nil, nodes, order, ref, chk, phase, &cands, slow)
	if err != nil {
		return nil, err
	}
	r.facts["datasets"] = datasetFacts(data, ss.triples)
	r.notef("synth_slowest %s", slowest(slow, 6))
	r.facts["pool"] = fmt.Sprintf("%d cells x %d examples (pool seed %d)", len(cells), poolPerCell, poolSeed)
	if !o.trace {
		setEndToEnd(r, lr, setups, heap)
		chk.notes(r)
		return r, nil
	}

	// Traced run: a fresh set-up with shims at every boundary.
	rec := newRecorder()
	es := newEngineStats()
	nodes, ss, err = setupSynth(rec, data, es.observe)
	if err != nil {
		return nil, err
	}
	cands = 0
	tr, err := synthLoop(rec, nodes, order, ref, chk, phase, &cands, nil)
	if err != nil {
		return nil, err
	}
	r.attempted, r.failed = lr.ops+tr.ops, lr.failed+tr.failed
	layer := newLayerReport(r, rec, tr, lr)
	layer.setup(ss)
	layer.engine(es)
	stepMix(r, es)
	r.set("core.queries_per_op", layer.count(es.n))
	r.set("core.candidates_per_op", layer.count(cands))
	layer.finish()
	chk.notes(r)
	return r, writeSpans(o, rec)
}

// writeSynthDigest records the reference digest for every pool example.
func writeSynthDigest(path string) error {
	data, err := synthData()
	if err != nil {
		return err
	}
	nodes, _, err := setupSynth(nil, data, nil)
	if err != nil {
		return err
	}
	out := map[string]string{}
	for _, cell := range synthPool(nodes) {
		for _, ex := range cell {
			n := nodes[ex.node]
			cands, err := core.NewEngine(n.client, n.graph, n.spec.Config()).Synthesize(context.Background(), core.Keywords(ex.keywords...))
			if err != nil {
				return fmt.Errorf("%s: %w", ex.key, err)
			}
			out[ex.key] = candidatesDigest(cands)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, formatDigests(out), 0o644)
}

// slowest names the examples with the highest single latency.
func slowest(lats map[string][]time.Duration, n int) string {
	keys := sortedKeys(lats)
	sort.Slice(keys, func(i, j int) bool { return maxDuration(lats[keys[i]]) > maxDuration(lats[keys[j]]) })
	var parts []string
	for _, k := range keys[:min(n, len(keys))] {
		parts = append(parts, fmt.Sprintf("%s=%s", k, fmtMillis(lats[k])))
	}
	return strings.Join(parts, " ")
}

func fmtMillis(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.1fms", ms(d))
	}
	return strings.Join(parts, "/")
}
