// Command perfbench is the repository's benchmark. It drives the
// paper's three workloads through the real stacks from one process and
// measures every layer from outside, through wrappers around the
// layers' public calls:
//
//   - synth: ReOLAP synthesis (Fig 7) from example tuples of sizes 1-4
//     on in-process eurostat- and dbpedia-shaped nodes, one client.
//   - explore: Algorithm 2 sessions (Apply a refinement, then Options
//     for Disaggregate, TopK, Percentile and Similarity) over one
//     loopback HTTP node, one client.
//   - replay_3shard: two clients replay recorded session SPARQL against
//     a serve stack (result cache and single-flight) over a 3-shard
//     coordinator whose shards each sit behind their own loopback
//     server; the stack itself is served over loopback HTTP.
//
// All load is closed loop. Every answer is checked: synth candidates
// against testdata/synth_digest.txt, explore and replay answers byte
// for byte against the single-node in-process engine.
//
// Usage:
//
//	perfbench --workload synth --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured with no wrapper inside the
// program. With --trace 1 the run measures half its time untraced and
// half with span wrappers at every layer boundary, and reports the
// per-layer metrics, trace_overhead and unattributed_share. The lines
// before it, each starting with "#", give machine facts, sample counts,
// fail_ratio, input mixes and the layer breakdown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var o options
	var trace int
	var digestOut, poolOut string
	flag.StringVar(&o.workload, "workload", "", "synth, explore or replay_3shard")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&digestOut, "write-synth-digest", "", "record the synth reference digests to this file and exit")
	flag.StringVar(&poolOut, "write-replay-pool", "", "record the replay session pool to this file and exit")
	flag.Parse()
	if digestOut != "" || poolOut != "" {
		var err error
		if digestOut != "" {
			err = writeSynthDigest(digestOut)
		} else {
			err = writeReplayPool(poolOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	o.spansPath = filepath.Join(".bench_build", "spans-"+o.workload+".jsonl")
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation with defaults filled in.
func run(o options) (*report, error) {
	if o.setups == 0 {
		// Set-up repeats so its median is steady: fewer of the slow
		// ones, more of the fast ones. A traced run reports no setup_s.
		o.setups = map[string]int{"synth": 3, "explore": 5, "replay_3shard": 21}[o.workload]
		if o.trace {
			o.setups = 1
		}
	}
	t0, s0, haveTicks := cpuTicks()
	var r *report
	var err error
	switch o.workload {
	case "synth":
		r, err = runSynth(o)
	case "explore":
		r, err = runExplore(o)
	case "replay_3shard":
		r, err = runReplay(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want synth, explore or replay_3shard)", o.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	machineFacts(r, o)
	if haveTicks {
		r.facts["cpu_steal_share"] = stealShare(t0, s0)
	}
	return r, nil
}

// repeatSetup runs the program's set-up n times from a collected heap,
// stopping each stack before building the next, and returns the last
// stack with every set-up's wall time.
func repeatSetup[T any](n int, build func() (T, setupStats, error), stop func(T)) (T, []time.Duration, setupStats, error) {
	var last T
	var ss setupStats
	var walls []time.Duration
	for i := 0; i < n; i++ {
		if i > 0 {
			stop(last)
		}
		runtime.GC()
		t0 := time.Now()
		s, st, err := build()
		if err != nil {
			return last, nil, ss, err
		}
		walls = append(walls, time.Since(t0))
		last, ss = s, st
	}
	return last, walls, ss, nil
}

func datasetFacts(data []*dataset, triples int) map[string]any {
	out := map[string]any{"triples": triples}
	for _, d := range data {
		out[d.spec.Name+"_observations"] = d.spec.Observations
		out[d.spec.Name+"_ntriples_bytes"] = d.bytes
	}
	return out
}

// writeSpans writes a traced run's spans where the options say.
func writeSpans(o options, rec *recorder) error {
	if o.spansPath == "" {
		return nil
	}
	if err := rec.writeSpans(o.spansPath); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// print writes the notes, the metrics with units, and the result line.
func (r *report) print(w *os.File) error {
	facts, err := json.Marshal(r.facts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# facts %s\n", facts)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# metric %s = %g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
