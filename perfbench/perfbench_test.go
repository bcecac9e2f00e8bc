package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
)

// tiny is the smallest run of a workload: a few inputs, one set-up.
func tiny(workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: 0.1, trace: trace, tiny: true, setups: 1}
}

// TestWorkloadsReportEveryMetric runs each workload at its smallest
// size, untraced and traced, and checks that every named metric is
// emitted with its unit and that no answer was wrong.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range []string{"synth", "explore", "replay_3shard"} {
		for _, trace := range []bool{false, true} {
			r, err := run(tiny(w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.metrics[m.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.name)
					continue
				}
				if got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, trace, m.name, got.Unit, m.unit)
				}
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d; fail_ratio must be 0 (%v)", w, trace, r.attempted, r.failed, r.notes)
			}
			if !trace && r.metrics["ops_per_s"].Value <= 0 {
				t.Errorf("%s: ops_per_s %v", w, r.metrics["ops_per_s"].Value)
			}
		}
	}
}

// corrupting changes the first value of the first answer that passes
// through it.
type corrupting struct {
	inner endpoint.Client
	done  bool
}

func (c *corrupting) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, err := c.inner.Query(ctx, q)
	if err == nil && !c.done && res.Len() > 0 {
		c.done = true
		row := append([]rdf.Term(nil), res.Rows[0]...)
		row[0] = rdf.NewString(row[0].Value + " (corrupted)")
		rows := append([][]rdf.Term{row}, res.Rows[1:]...)
		res = &sparql.Results{Vars: res.Vars, Rows: rows}
	}
	return res, err
}

// TestCheckerCountsCorruptAnswer feeds one corrupted answer through the
// replay loop and its checker and sees exactly one failure.
func TestCheckerCountsCorruptAnswer(t *testing.T) {
	var pool replayPool
	if err := json.Unmarshal(replayPoolFile, &pool); err != nil {
		t.Fatal(err)
	}
	lists, err := dealReplay(&pool, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := generate(replaySpec())
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := setupReplay(nil, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	s.top = &corrupting{inner: s.top}
	chk := &checker{}
	lr, err := replayLoop(nil, s, lists[:1], chk, map[uint64]time.Duration{})
	if err != nil {
		t.Fatal(err)
	}
	if lr.failed != 1 || chk.failed != 1 {
		t.Fatalf("failed ops %d, checker failures %d; want 1 and 1 (%v)", lr.failed, chk.failed, chk.examples)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// tables of this package in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSelfTimesAddUp checks the sweep on a hand-made trace: two
// concurrent children share the time they overlap, and the self times
// sum to the root's wall.
func TestSelfTimesAddUp(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "op", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 40, End: 90},
		{Trace: 1, ID: 4, Parent: 3, Name: "c", Start: 50, End: 120}, // clipped to b
	}
	got := selfTimes(spans, &spans[0])
	want := map[string]int64{"op": 20, "a": 30 + 10, "b": 5, "c": 5 + 30}
	var sum int64
	for name, d := range got {
		sum += int64(d)
		if int64(d) != want[name] {
			t.Errorf("%s: self %d, want %d", name, d, want[name])
		}
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the op wall 100", sum)
	}
}
