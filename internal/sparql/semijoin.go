package sparql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"re2xolap/internal/store"
)

// Semi-join reduction for VALUES-anchored short-circuit joins.
//
// A witness query — `?o a C . ?o p1/q1 ?x0 . VALUES ?x0 {…} . ?o
// p2/q2/r2 ?x1 . VALUES ?x1 {…} … LIMIT 1` — is a star of property
// chains meeting at ?o, each chain ending in a VALUES-bound variable.
// The greedy DFS order treats every VALUES endpoint as already bound,
// so it walks the tail hops of all chains first and only then reaches
// ?o: proving that no witness exists costs the cross product of the
// chains' intermediate sets. The reducer computes for every variable
// the set of values it can take in any solution: starting from the
// VALUES sets, it walks each chain backwards over the POS index,
// intersects the chains where they meet, and propagates forward again
// until nothing shrinks (arc consistency, which on an acyclic pattern
// set is a full semi-join reducer). The DFS skips every extension that
// binds a variable outside its set. Those branches cannot produce a
// solution, so the DFS order and its first solutions are unchanged.
//
// When a witness exists the DFS often finds it within a few rows, far
// sooner than the reduction would finish. So the reduction runs
// interleaved with the DFS and never reads more index entries than
// the DFS has visited rows: a search that ends quickly pays at most
// as much again, and one that would walk a cross product is cut short
// once the sets are done. The sets are sound at every step, so the
// DFS prunes with whatever the reducer has computed so far.

// candSet holds the values a variable can take in any solution.
type candSet map[store.ID]struct{}

func (c candSet) has(id store.ID) bool {
	_, ok := c[id]
	return ok
}

// sjEdge is one triple pattern with a constant predicate, as the
// reducer sees it: a subject and object that are each a slot (>= 0) or
// a constant (slot -1, id set). Per-side state is indexed by side: 0
// is the object, 1 the subject.
type sjEdge struct {
	s, o     int
	sID, oID store.ID
	p        store.ID
	// seen holds the versions of the side sets the edge was last made
	// consistent with.
	seen [2]int
	// work caches walkWork for each side's set as of version workVer;
	// a partial sum (workExact false) is only known to exceed itself.
	work, workVer [2]int
	workExact     [2]bool
}

// slotAt returns the edge's slot on side (0 object, 1 subject).
func (e *sjEdge) slotAt(side int) int {
	if side == 0 {
		return e.o
	}
	return e.s
}

// reducer holds the candidate sets of one DFS and computes them one
// edge revision at a time. It belongs to the DFS's plan; only the
// sequential DFS advances it, and the parallel DFS finishes it before
// its workers start.
type reducer struct {
	ex *executor
	// sets[slot] is the slot's candidate set, nil while unrestricted;
	// ver[slot] counts its changes.
	sets  []candSet
	ver   []int
	edges []sjEdge
	// read counts the index entries the reduction has read, visited
	// the rows the DFS has visited; visit steps while read < visited.
	read, visited int
	done          bool
	// timed makes step accumulate wall, for the profile.
	timed bool
	wall  time.Duration
}

// newReducer returns the reducer for a DFS over patterns seeded by
// seed, or nil when the reduction does not apply. It applies when at
// least two pattern variables among anchors (the VALUES variables) are
// bound in every seed row; a VALUES variable that some row leaves
// UNDEF stays unrestricted.
func (ex *executor) newReducer(seed []row, patterns []TriplePattern, anchors []string) *reducer {
	if len(seed) == 0 || len(anchors) < 2 {
		return nil
	}
	edges := ex.sjEdges(patterns)
	inEdges := map[int]bool{}
	for _, e := range edges {
		inEdges[e.s], inEdges[e.o] = true, true
	}
	r := &reducer{ex: ex, sets: make([]candSet, len(ex.varSeq)), ver: make([]int, len(ex.varSeq)), edges: edges}
	n := 0
	for _, name := range anchors {
		s, ok := ex.slots[name]
		if !ok || !inEdges[s] || r.sets[s] != nil {
			continue
		}
		set := candSet{}
		for _, row := range seed {
			if s >= len(row) || row[s] == 0 {
				set = nil // UNDEF somewhere: unrestricted
				break
			}
			set[row[s]] = struct{}{}
		}
		if set != nil {
			r.sets[s], r.ver[s] = set, 1
			n++
		}
	}
	if n < 2 {
		return nil
	}
	return r
}

// admits reports whether row binds every slot in slots that has a
// candidate set to a value in it.
func (r *reducer) admits(row row, slots []int) bool {
	for _, s := range slots {
		if c := r.sets[s]; c != nil && row[s] != 0 && !c.has(row[s]) {
			return false
		}
	}
	return true
}

// visit records a row visited by the DFS and lets the reduction catch
// up. A finished reducer is left untouched: the parallel DFS's workers
// share it.
func (r *reducer) visit() {
	if r.done {
		return
	}
	r.visited++
	for !r.done && r.read < r.visited {
		r.step()
	}
}

// finish runs the reduction to its end.
func (r *reducer) finish() {
	for !r.done {
		r.step()
	}
}

// walkWork is the cost of walking e from side's set: one index lookup
// per value plus the triples it reaches. The sum stops once it exceeds
// limit; the result is then some value above limit.
func (r *reducer) walkWork(e *sjEdge, side, limit int) int {
	slot := e.slotAt(side)
	if e.workVer[side] == r.ver[slot] && (e.workExact[side] || e.work[side] > limit) {
		return e.work[side]
	}
	w, exact := 0, true
	for id := range r.sets[slot] {
		if w > limit {
			exact = false
			break
		}
		if side == 0 {
			w += 1 + r.ex.view.MatchCount(0, e.p, id)
		} else {
			w += 1 + r.ex.view.MatchCount(id, e.p, 0)
		}
	}
	e.work[side], e.workVer[side], e.workExact[side] = w, r.ver[slot], exact
	return w
}

// narrow replaces slot's set with next, a subset of it (or any set when
// the slot is unrestricted), bumping the slot's version when that
// changes anything.
func (r *reducer) narrow(slot int, next candSet) {
	if r.sets[slot] == nil || len(next) < len(r.sets[slot]) {
		r.sets[slot] = next
		r.ver[slot]++
	}
}

// revise makes edge e consistent by walking it from side: a value there
// stays if one of its triples reaches a value allowed on the other
// side, and the values so reached become the other side's set. Both
// sides then agree, so the edge is up to date with both.
func (r *reducer) revise(e *sjEdge, side int) {
	from, to := e.slotAt(side), e.slotAt(1-side)
	keep, reached := candSet{}, candSet{}
	for id := range r.sets[from] {
		r.read++
		s, o := e.sID, e.oID
		if side == 0 || to == from {
			o = id
		}
		if side == 1 || to == from {
			s = id
		}
		if to < 0 || to == from {
			// One variable position (or ?x p ?x): a value stays if it
			// has a matching triple.
			if r.ex.view.MatchCount(s, e.p, o) > 0 {
				keep[id] = struct{}{}
			}
			continue
		}
		r.ex.view.Match(s, e.p, o, func(ts, _, to2 store.ID) bool {
			r.read++
			n := ts
			if side == 1 {
				n = to2
			}
			if r.sets[to] == nil || r.sets[to].has(n) {
				keep[id] = struct{}{}
				reached[n] = struct{}{}
			}
			return true
		})
	}
	r.narrow(from, keep)
	if to >= 0 && to != from {
		r.narrow(to, reached)
	}
	for side := 0; side < 2; side++ {
		if slot := e.slotAt(side); slot >= 0 {
			e.seen[side] = r.ver[slot]
		}
	}
}

// step does one revision: of the edges not yet consistent with both
// their sides, the one that reads the fewest index entries, walked
// from its cheaper restricted side. Doing the cheap steps first means
// a large middle set (every artist of a continent, say) is only ever
// reached from a side already intersected down. A walk costs at least
// one lookup per value, so candidates are tried smallest set first
// and the search stops at the first set no smaller than the best cost
// found. step marks the reducer done at the fixpoint, when a set runs
// dry (no solution exists: every variable gets the empty set, so the
// DFS prunes every row), and when the query is cancelled (the sets
// stay sound).
func (r *reducer) step() {
	if r.timed {
		defer func(start time.Time) { r.wall += time.Since(start) }(time.Now())
	}
	type pending struct{ e, side, size int }
	var steps []pending
	for i := range r.edges {
		e := &r.edges[i]
		stale := false
		for side := 0; side < 2; side++ {
			if slot := e.slotAt(side); slot >= 0 && e.seen[side] != r.ver[slot] {
				stale = true
			}
		}
		if !stale {
			continue
		}
		for side := 0; side < 2; side++ {
			if slot := e.slotAt(side); slot >= 0 && r.sets[slot] != nil {
				steps = append(steps, pending{i, side, len(r.sets[slot])})
			}
		}
	}
	if len(steps) == 0 || r.ex.cancelled() {
		r.done = true
		return
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].size < steps[j].size })
	best, bestCost := steps[0], math.MaxInt
	for _, st := range steps {
		if st.size >= bestCost {
			break
		}
		e := &r.edges[st.e]
		cost := st.size
		if to := e.slotAt(1 - st.side); to >= 0 && to != e.slotAt(st.side) {
			cost = r.walkWork(e, st.side, bestCost)
		}
		if cost < bestCost {
			best, bestCost = st, cost
		}
	}
	e := &r.edges[best.e]
	r.revise(e, best.side)
	for side := 0; side < 2; side++ {
		if slot := e.slotAt(side); slot >= 0 && r.sets[slot] != nil && len(r.sets[slot]) == 0 {
			for s := range r.sets {
				r.sets[s] = candSet{}
			}
			r.done = true
			return
		}
	}
}

// sjEdges converts the patterns the reducer can use: a constant
// predicate and at least one variable endpoint. Patterns with a
// variable predicate, or a constant absent from the data, are left
// out; leaving a pattern out only makes the sets larger, never wrong.
func (ex *executor) sjEdges(patterns []TriplePattern) []sjEdge {
	var edges []sjEdge
	for _, tp := range patterns {
		if tp.P.IsVar || !tp.S.IsVar && !tp.O.IsVar {
			continue
		}
		p, ok := ex.dict.Lookup(tp.P.Term)
		if !ok {
			continue
		}
		e := sjEdge{s: -1, o: -1, p: p}
		if tp.S.IsVar {
			e.s = ex.slot(tp.S.Var)
		} else if e.sID, ok = ex.dict.Lookup(tp.S.Term); !ok {
			continue
		}
		if tp.O.IsVar {
			e.o = ex.slot(tp.O.Var)
		} else if e.oID, ok = ex.dict.Lookup(tp.O.Term); !ok {
			continue
		}
		edges = append(edges, e)
	}
	return edges
}

// profile renders the semijoin profile node. Its detail gives the
// index entries read and the candidate set sizes in slot order, marked
// partial when the DFS ended before the reduction did; in and out are
// the seed rows and those the final sets admit.
func (r *reducer) profile(seed []row, seedSlots []int) *ProfileNode {
	var parts []string
	if !r.done {
		parts = append(parts, "partial")
	}
	parts = append(parts, fmt.Sprintf("read=%d", r.read))
	for s, c := range r.sets {
		if c != nil {
			parts = append(parts, fmt.Sprintf("?%s=%d", r.ex.varSeq[s], len(c)))
		}
	}
	admitted := 0
	for _, row := range seed {
		if r.admits(row, seedSlots) {
			admitted++
		}
	}
	return &ProfileNode{Op: "semijoin", Detail: strings.Join(parts, " "), RowsIn: len(seed), RowsOut: admitted, Est: -1, Wall: r.wall}
}
