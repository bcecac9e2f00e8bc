package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded at a layer boundary. Spans of one
// benchmark operation share Trace; Parent is 0 for the operation's root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef names a recorded span so children can point at it, also
// across the loopback HTTP hop (see parentHeader).
type spanRef struct{ trace, id uint64 }

type spanKey struct{}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced run pays only nil checks in the
// benchmark's own code and has no wrapper in the program's stack.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r     *recorder
	ref   spanRef
	par   uint64
	name  string
	start int64
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginOp starts the root span of one benchmark operation: a new trace.
func (r *recorder) beginOp(ctx context.Context, name string) (context.Context, openSpan) {
	if r == nil {
		return ctx, openSpan{}
	}
	return r.open(ctx, spanRef{trace: r.next.Add(1)}, name)
}

// begin starts a child of the span carried by ctx. Without one it
// starts a new trace, which attribution ignores unless it is an op.
func (r *recorder) begin(ctx context.Context, name string) (context.Context, openSpan) {
	if r == nil {
		return ctx, openSpan{}
	}
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		parent = spanRef{trace: r.next.Add(1)}
	}
	return r.open(ctx, parent, name)
}

func (r *recorder) open(ctx context.Context, parent spanRef, name string) (context.Context, openSpan) {
	ref := spanRef{trace: parent.trace, id: r.next.Add(1)}
	return context.WithValue(ctx, spanKey{}, ref), openSpan{r: r, ref: ref, par: parent.id, name: name, start: r.now()}
}

// end records the span and returns its duration.
func (o openSpan) end() time.Duration {
	if o.r == nil {
		return 0
	}
	end := o.r.now()
	o.r.add(span{Trace: o.ref.trace, ID: o.ref.id, Parent: o.par, Name: o.name, Start: o.start, End: end})
	return time.Duration(end - o.start)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// child records a completed child of o laid out from start for d: the
// engine phases QueryMeta reports as durations become spans this way.
func (o openSpan) child(name string, start int64, d time.Duration) int64 {
	if o.r == nil || d <= 0 {
		return start
	}
	end := start + int64(d)
	o.r.add(span{Trace: o.ref.trace, ID: o.r.next.Add(1), Parent: o.ref.id, Name: name, Start: start, End: end})
	return end
}

// writeSpans writes every span as one JSON line.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribution is the per-span-name self time summed over all op
// traces, plus the op walls it splits.
type attribution struct {
	self   map[string]time.Duration
	opWall time.Duration
	ops    int
}

// attribute splits each op's wall time among its spans. At every
// instant the time goes, in equal shares, to the active spans that
// have no active child, so concurrent children share an interval and
// the self times of one op sum exactly to its wall. The root's own
// share is time no layer wrapper covered.
func (r *recorder) attribute(opName string) attribution {
	a := attribution{self: map[string]time.Duration{}}
	r.mu.Lock()
	byTrace := map[uint64][]span{}
	for _, s := range r.spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	r.mu.Unlock()
	for _, spans := range byTrace {
		var root *span
		for i := range spans {
			if spans[i].Parent == 0 && spans[i].Name == opName {
				root = &spans[i]
			}
		}
		if root == nil {
			continue
		}
		a.ops++
		a.opWall += time.Duration(root.End - root.Start)
		for name, d := range selfTimes(spans, root) {
			a.self[name] += d
		}
	}
	return a
}

// selfTimes runs the sweep for one trace. Child intervals are clipped
// to their parent's, so a span that outlives its parent (a cancelled
// hedge) cannot claim time outside the op.
func selfTimes(spans []span, root *span) map[string]time.Duration {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	type node struct {
		name       string
		start, end int64
		parent     int
	}
	// Order parents before children so clipping sees clipped parents.
	depth := func(s *span) int {
		d := 0
		for p := s; p.Parent != 0; d++ {
			q, ok := byID[p.Parent]
			if !ok {
				return -1
			}
			p = q
		}
		return d
	}
	type ranked struct {
		s *span
		d int
	}
	var rs []ranked
	for i := range spans {
		if d := depth(&spans[i]); d >= 0 {
			rs = append(rs, ranked{&spans[i], d})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].d < rs[j].d })
	idx := map[uint64]int{}
	var nodes []node
	for _, x := range rs {
		n := node{name: x.s.Name, start: x.s.Start, end: x.s.End, parent: -1}
		if x.s.Parent != 0 {
			pi, ok := idx[x.s.Parent]
			if !ok {
				continue
			}
			n.parent = pi
			p := nodes[pi]
			n.start = max(n.start, p.start)
			n.end = min(n.end, p.end)
		} else if x.s != root {
			continue
		}
		if n.end < n.start {
			n.end = n.start
		}
		idx[x.s.ID] = len(nodes)
		nodes = append(nodes, n)
	}
	// Event sweep: starts before ends at one instant, parents start
	// before children and children end before parents.
	type event struct {
		at    int64
		end   bool
		depth int
		node  int
	}
	ev := make([]event, 0, 2*len(nodes))
	depths := make([]int, len(nodes))
	for i, n := range nodes {
		if n.parent >= 0 {
			depths[i] = depths[n.parent] + 1
		}
		ev = append(ev, event{n.start, false, depths[i], i}, event{n.end, true, depths[i], i})
	}
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.end != b.end {
			return !a.end
		}
		if a.end {
			return a.depth > b.depth
		}
		return a.depth < b.depth
	})
	out := map[string]time.Duration{}
	activeChildren := make([]int, len(nodes))
	active := make([]bool, len(nodes))
	leaves := map[int]bool{}
	var last int64
	for _, e := range ev {
		if d := e.at - last; d > 0 && len(leaves) > 0 {
			share := time.Duration(d) / time.Duration(len(leaves))
			rem := time.Duration(d) - share*time.Duration(len(leaves))
			first := -1
			for i := range leaves {
				out[nodes[i].name] += share
				if first < 0 || i < first {
					first = i
				}
			}
			out[nodes[first].name] += rem
		}
		last = e.at
		i, p := e.node, nodes[e.node].parent
		if !e.end {
			active[i] = true
			leaves[i] = true
			if p >= 0 && active[p] {
				activeChildren[p]++
				delete(leaves, p)
			}
			continue
		}
		active[i] = false
		delete(leaves, i)
		if p >= 0 && active[p] {
			activeChildren[p]--
			if activeChildren[p] == 0 {
				leaves[p] = true
			}
		}
	}
	return out
}

// perOp averages a total over ops.
func perOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return d.Seconds() / float64(ops)
}
