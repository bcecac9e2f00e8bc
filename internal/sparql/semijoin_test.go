package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"re2xolap/internal/datagen"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// This file tests the semi-join reduction of VALUES-anchored DFS joins
// (semijoin.go): it must never change an answer, must keep the DFS's
// first solutions, and must make a witness query with no witness cheap.

// chainKG is a synthetic cube: observations linked to several M-to-N
// hierarchies ("chains"). Chain c has len(levels[c]) levels; an
// observation links to one or two level-0 members over <c{c}h0>, and
// each level-k member links to one or two level-(k+1) members over
// <c{c}h{k+1}>. Even level-0 members carry a <self> loop. Every chain
// also has a dead branch: one extra member
// per level, linked upwards into a dead top member, that no
// observation reaches.
type chainKG struct {
	triples []rdf.Triple
	// members[c][k] are chain c's level-k members; the last one of
	// each level is on the dead branch.
	members [][][]rdf.Term
}

func chainIRI(format string, args ...any) rdf.Term {
	return rdf.NewIRI("http://chain.test/" + fmt.Sprintf(format, args...))
}

func newChainKG(rng *rand.Rand, observations int, levels [][]int) *chainKG {
	kg := &chainKG{}
	add := func(s, p, o rdf.Term) { kg.triples = append(kg.triples, rdf.NewTriple(s, p, o)) }
	// links picks one target, or two with probability 1/3 (M-to-N).
	links := func(n int) []int {
		a := rng.Intn(n)
		if n > 1 && rng.Intn(3) == 0 {
			return []int{a, (a + 1 + rng.Intn(n-1)) % n}
		}
		return []int{a}
	}
	for c, sizes := range levels {
		ms := make([][]rdf.Term, len(sizes))
		for k, n := range sizes {
			for j := 0; j <= n; j++ { // j == n is the dead member
				ms[k] = append(ms[k], chainIRI("c%d/l%d/m%d", c, k, j))
			}
		}
		for j := 0; j < len(ms[0]); j += 2 {
			add(ms[0][j], chainIRI("self"), ms[0][j])
		}
		for k := 0; k+1 < len(sizes); k++ {
			p := chainIRI("c%dh%d", c, k+1)
			for j := 0; j < sizes[k]; j++ {
				for _, t := range links(sizes[k+1]) {
					add(ms[k][j], p, ms[k+1][t])
				}
			}
			add(ms[k][sizes[k]], p, ms[k+1][sizes[k+1]])
		}
		kg.members = append(kg.members, ms)
	}
	class := chainIRI("Obs")
	for i := 0; i < observations; i++ {
		o := chainIRI("o%d", i)
		add(o, rdf.NewIRI(rdf.RDFType), class)
		for c, sizes := range levels {
			for _, t := range links(sizes[0]) {
				add(o, chainIRI("c%dh0", c), kg.members[c][0][t])
			}
		}
	}
	return kg
}

func (kg *chainKG) store(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	if err := st.AddAll(kg.triples); err != nil {
		t.Fatal(err)
	}
	return st
}

// tail returns chain c's top-level members, dead one last.
func (kg *chainKG) tail(c int) []rdf.Term {
	ms := kg.members[c]
	return ms[len(ms)-1]
}

// chainPatterns spells chain c from ?o up to ?tail with named
// intermediate variables ?c{c}v{k} (prefix distinguishes two copies of
// one chain).
func chainPatterns(c, hops int, prefix, tail string) string {
	var b strings.Builder
	prev := "?o"
	for k := 0; k < hops; k++ {
		next := fmt.Sprintf("?%sc%dv%d", prefix, c, k)
		if k == hops-1 {
			next = "?" + tail
		}
		fmt.Fprintf(&b, "%s <http://chain.test/c%dh%d> %s . ", prev, c, k, next)
		prev = next
	}
	return b.String()
}

// valuesBlock renders a one-variable VALUES block; a nil member is
// UNDEF.
func valuesBlock(v string, members []rdf.Term) string {
	var b strings.Builder
	fmt.Fprintf(&b, "VALUES ?%s {", v)
	for _, m := range members {
		if m == (rdf.Term{}) {
			b.WriteString(" UNDEF")
		} else {
			b.WriteString(" " + m.String())
		}
	}
	b.WriteString(" } ")
	return b.String()
}

// witnessSrc builds the 4-chain witness query shape ReOLAP issues.
func witnessSrc(kg *chainKG, values [][]rdf.Term, head, tail string) string {
	var b strings.Builder
	b.WriteString(head + " WHERE { ?o a <http://chain.test/Obs> . ")
	for c, vs := range values {
		b.WriteString(chainPatterns(c, len(kg.members[c]), "", fmt.Sprintf("x%d", c)))
		b.WriteString(valuesBlock(fmt.Sprintf("x%d", c), vs))
	}
	b.WriteString("} " + tail)
	return b.String()
}

// dfsDirect runs the short-circuit DFS of a patterns/VALUES/FILTER
// query the way evalWhere does, with or without the semi-join
// reduction, and returns the rows projected on vars and the dfs
// profile node. It is the unreduced baseline the reduction is compared
// against.
func dfsDirect(t *testing.T, eng *Engine, src string, reduce bool, vars []string) ([][]rdf.Term, *ProfileNode) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	view := eng.st.View()
	ex := &executor{
		eng: eng, view: view, dict: view.Dict(), slots: map[string]int{}, ctx: context.Background(),
		workers: eng.Exec.workers(), threshold: eng.Exec.threshold(), dead: new(atomic.Bool),
		limit: q.Limit,
	}
	if q.Ask {
		ex.limit = 1
	}
	var patterns []TriplePattern
	var filters []Expr
	var anchors []string
	var values []ValuesElement
	for _, el := range q.Where {
		switch x := el.(type) {
		case TriplePattern:
			patterns = append(patterns, x)
			for _, n := range []Node{x.S, x.P, x.O} {
				if n.IsVar {
					ex.slot(n.Var)
				}
			}
		case FilterElement:
			filters = append(filters, x.Expr)
		case ValuesElement:
			values = append(values, x)
			anchors = append(anchors, x.Vars...)
		default:
			t.Fatalf("dfsDirect: unsupported element %T", el)
		}
	}
	rows := []row{make(row, len(ex.varSeq))}
	for _, v := range values {
		if rows, err = ex.joinValues(rows, v); err != nil {
			t.Fatal(err)
		}
	}
	if !reduce {
		anchors = nil
	}
	pn := &ProfileNode{Op: "dfs"}
	out, err := ex.joinDFS(rows, patterns, filters, anchors, pn)
	if err != nil {
		t.Fatal(err)
	}
	var res [][]rdf.Term
	for _, r := range out {
		tuple := make([]rdf.Term, len(vars))
		for i, v := range vars {
			if s, ok := ex.slots[v]; ok && r[s] != 0 {
				tuple[i] = ex.dict.Decode(r[s])
			}
		}
		res = append(res, tuple)
	}
	return res, pn
}

// sameRows compares result rows, treating nil and empty alike.
func sameRows(a, b [][]rdf.Term) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// depthVisits sums the rows visited below the seed level.
func depthVisits(pn *ProfileNode) int {
	n := 0
	for _, c := range pn.Children {
		if c.Op == "depth" && c.Detail != "seed" {
			n += c.RowsIn
		}
	}
	return n
}

func child(t *testing.T, pn *ProfileNode, op, detailPrefix string) *ProfileNode {
	t.Helper()
	for _, c := range pn.Children {
		if c.Op == op && strings.HasPrefix(c.Detail, detailPrefix) {
			return c
		}
	}
	t.Fatalf("no %s %q child under %s %q", op, detailPrefix, pn.Op, pn.Detail)
	return nil
}

// fourChainLevels is the witness shape of the dbpedia size-4 tail: four
// chains of one to four hops, wide at the bottom.
var fourChainLevels = [][]int{{40, 8, 3}, {30, 2}, {50, 12, 4, 2}, {20, 6, 2}}

// TestSemijoinNoWitnessIsCheap is the witness-tail regression: a
// LIMIT 1 witness whose last chain ends in a member no observation
// reaches. Unreduced, the DFS walks the cross product of the other
// chains before it can fail; reduced, the candidate sets run dry after
// a few index reads and the DFS prunes everything from then on.
func TestSemijoinNoWitnessIsCheap(t *testing.T) {
	kg := newChainKG(rand.New(rand.NewSource(1)), 60, fourChainLevels)
	eng := NewEngine(kg.store(t))
	values := [][]rdf.Term{kg.tail(0)[:2], kg.tail(1)[:2], kg.tail(2)[:2], kg.tail(3)[2:]} // x3: the dead member
	src := witnessSrc(kg, values, "SELECT ?x0 ?x1 ?x2 ?x3", "LIMIT 1")

	res, p, err := eng.Profile(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Len())
	}
	dfs := child(t, p.Root, "dfs", "")
	sj := child(t, dfs, "semijoin", "")
	var read int
	if _, err := fmt.Sscanf(sj.Detail, "read=%d", &read); err != nil {
		t.Fatalf("semijoin %q did not finish: %v", sj.Detail, err)
	}
	if sj.RowsOut != 0 {
		t.Errorf("semijoin admitted %d seed rows, want 0:\n%s", sj.RowsOut, p)
	}
	// Rows are only kept while the reduction runs, and it keeps up
	// with the rows visited, so the rows kept are bounded by its reads.
	kept := 0
	for _, c := range dfs.Children {
		if c.Op == "depth" {
			kept += c.RowsOut
		}
	}
	if kept > read+1 {
		t.Errorf("DFS kept %d rows, more than the reduction's %d reads:\n%s", kept, read, p)
	}
	_, base := dfsDirect(t, eng, src, false, nil)
	if n, m := depthVisits(base), depthVisits(dfs); n < 10000 || n < 100*m {
		t.Errorf("unreduced DFS visited %d rows, reduced %d; want a witness tail cut by 100x", n, m)
	}
}

// TestSemijoinProfileDepths checks the per-depth DFS profile on the
// 4-chain shape: a semijoin child with the set sizes, then one child
// per depth whose counts add up, with the reduction pruning rows at
// depth 0.
func TestSemijoinProfileDepths(t *testing.T) {
	// Eight observations; chain 0 runs o_i -> a_i -> T, chains 1-3 are
	// one hop to Y (only o_7) or N. The DFS starts at T's tail hop,
	// which fans out to a_0 ... a_7 in that order, and only a_7 leads
	// to the witness o_7.
	kg := &chainKG{members: [][][]rdf.Term{{nil, {chainIRI("T")}}}}
	add := func(s, p, o rdf.Term) { kg.triples = append(kg.triples, rdf.NewTriple(s, p, o)) }
	for i := 0; i < 8; i++ {
		a := chainIRI("a%d", i)
		kg.members[0][0] = append(kg.members[0][0], a)
		add(a, chainIRI("c0h1"), chainIRI("T"))
	}
	for c := 1; c < 4; c++ {
		kg.members = append(kg.members, [][]rdf.Term{{chainIRI("Y%d", c), chainIRI("N%d", c)}})
	}
	for i := 0; i < 8; i++ {
		o := chainIRI("o%d", i)
		add(o, rdf.NewIRI(rdf.RDFType), chainIRI("Obs"))
		add(o, chainIRI("c0h0"), kg.members[0][0][i])
		for c := 1; c < 4; c++ {
			add(o, chainIRI("c%dh0", c), kg.members[c][0][min(7-i, 1)])
		}
	}
	eng := NewEngine(kg.store(t))
	values := [][]rdf.Term{kg.tail(0), kg.tail(1)[:1], kg.tail(2)[:1], kg.tail(3)[:1]}
	src := witnessSrc(kg, values, "SELECT ?o", "LIMIT 1")
	res, p, err := eng.Profile(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want a witness", res.Len())
	}
	dfs := child(t, p.Root, "dfs", "")
	sj := child(t, dfs, "semijoin", "")
	if !strings.Contains(sj.Detail, "?o=") || !strings.Contains(sj.Detail, "?x3=1") {
		t.Errorf("semijoin detail %q lacks set sizes", sj.Detail)
	}
	depths := 0
	for _, c := range dfs.Children {
		if c.Op != "depth" {
			continue
		}
		depths++
		if c.RowsIn != c.RowsOut+c.Pruned+c.Filtered {
			t.Errorf("%s: in=%d != out=%d + pruned=%d + filtered=%d", c.Detail, c.RowsIn, c.RowsOut, c.Pruned, c.Filtered)
		}
	}
	if want := 1 + 1 + 2 + 1 + 1 + 1; depths != want {
		t.Errorf("%d depth children, want seed + %d patterns", depths, want-1)
	}
	// The sequential DFS starts before the reduction has reached a_i,
	// so a_0 is explored (and pruned one depth further down) before
	// depth 0 starts pruning.
	if d0 := child(t, dfs, "depth", "0 "); d0.RowsIn != 8 || d0.Pruned == 0 {
		t.Errorf("depth 0 visited %d rows and pruned %d, want 8 and some:\n%s", d0.RowsIn, d0.Pruned, p)
	}
	if s := p.String(); !strings.Contains(s, "semijoin read=") || !strings.Contains(s, "pruned=") {
		t.Errorf("rendered profile lacks the reduction:\n%s", s)
	}
	// Profiling only observes: the unprofiled path returns the same
	// rows.
	plain, err := eng.QueryString(src)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(plain.Rows, res.Rows) {
		t.Errorf("profiled rows %v != plain rows %v", res.Rows, plain.Rows)
	}

	// The parallel DFS finishes the reduction before it expands the
	// frontier, so depth 0 keeps only a_7; the workers' counts are
	// merged into the same per-depth children.
	eng.Exec.Workers = 4
	_, p, err = eng.Profile(context.Background(), witnessSrc(kg, values, "SELECT ?o", "LIMIT 3"))
	if err != nil {
		t.Fatal(err)
	}
	dfs = child(t, p.Root, "dfs", "")
	if d0 := child(t, dfs, "depth", "0 "); d0.Pruned != 7 || d0.RowsOut != 1 {
		t.Errorf("parallel depth 0 pruned %d and kept %d rows, want 7 and 1:\n%s", d0.Pruned, d0.RowsOut, p)
	}
	if last := dfs.Children[len(dfs.Children)-1]; last.RowsOut != 1 || dfs.RowsOut != 1 {
		t.Errorf("parallel DFS: last depth kept %d rows, dfs out %d, want 1 witness:\n%s", last.RowsOut, dfs.RowsOut, p)
	}
}

// refFilter is a reference-side filter over a full solution.
type refFilter func(refBinding) bool

// refValues joins the solutions with the VALUES blocks: a solution
// appears once per combination of compatible rows, one from each block
// (a nil cell is UNDEF, compatible with anything).
func refValues(sols []refBinding, blocks []ValuesElement) []refBinding {
	var out []refBinding
	for _, s := range sols {
		n := 1
		for _, b := range blocks {
			hits := 0
			for _, dataRow := range b.Rows {
				match := true
				for i, cell := range dataRow {
					if cell != nil && s[b.Vars[i]] != *cell {
						match = false
						break
					}
				}
				if match {
					hits++
				}
			}
			n *= hits
		}
		for ; n > 0; n-- {
			out = append(out, s)
		}
	}
	return out
}

// TestSemijoinMatchesReference cross-checks reduced DFS queries on
// random chain cubes against the brute-force reference evaluator and
// against the unreduced DFS: random multi-member VALUES (with UNDEF
// and two-variable blocks), a FILTER on an intermediate variable, a
// repeated variable closing a cycle through ?o, LIMIT 3 on the
// parallel frontier path, ASK and FILTER EXISTS.
func TestSemijoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	reduced := 0
	for trial := 0; trial < 120; trial++ {
		nChains := 3 + rng.Intn(2)
		levels := make([][]int, nChains)
		for c := range levels {
			hops := 1 + rng.Intn(3)
			for k := 0; k < hops; k++ {
				levels[c] = append(levels[c], 2+rng.Intn(5))
			}
		}
		kg := newChainKG(rng, 10+rng.Intn(20), levels)
		st := kg.store(t)
		eng := NewEngine(st)
		eng.Exec.Workers = 4
		eng.Exec.ParallelThreshold = 1

		// pick draws 1-3 members of chain c's level k, sometimes the
		// dead one, sometimes UNDEF.
		pick := func(c, k int) []rdf.Term {
			ms := kg.members[c][k]
			var out []rdf.Term
			for n := 1 + rng.Intn(3); n > 0; n-- {
				out = append(out, ms[rng.Intn(len(ms))])
			}
			if rng.Intn(6) == 0 {
				out = append(out, rdf.Term{})
			}
			return out
		}
		var body strings.Builder
		body.WriteString("?o a <http://chain.test/Obs> . ")
		for c := range levels {
			body.WriteString(chainPatterns(c, len(levels[c]), "", fmt.Sprintf("x%d", c)))
		}
		var vals strings.Builder
		anchored := map[int]bool{}
		var filters []refFilter
		variant := trial % 6
		switch {
		case variant == 5:
			// Repeated variables: a second copy of chain 0 ending in the
			// same ?x0 closes a cycle through ?o, and chain 1's level-0
			// variable must carry a self loop.
			body.WriteString(chainPatterns(0, len(levels[0]), "r", "x0"))
			v := "x1"
			if len(levels[1]) > 1 {
				v = "c1v0"
			}
			fmt.Fprintf(&body, "?%s <http://chain.test/self> ?%s . ", v, v)
		case nChains >= 2 && rng.Intn(3) == 0:
			// A two-variable block with correlated rows.
			a, b := pick(0, len(levels[0])-1), pick(1, len(levels[1])-1)
			vals.WriteString("VALUES (?x0 ?x1) {")
			for i := 0; i < min(len(a), len(b)); i++ {
				cell := func(m rdf.Term) string {
					if m == (rdf.Term{}) {
						return "UNDEF"
					}
					return m.String()
				}
				fmt.Fprintf(&vals, " (%s %s)", cell(a[i]), cell(b[i]))
			}
			vals.WriteString(" } ")
			anchored[0], anchored[1] = true, true
		}
		for c := range levels {
			if anchored[c] {
				continue
			}
			vals.WriteString(valuesBlock(fmt.Sprintf("x%d", c), pick(c, len(levels[c])-1)))
		}
		head, tail := "SELECT *", "LIMIT 1"
		switch variant {
		case 1:
			tail = "LIMIT 3"
		case 2:
			head, tail = "ASK", ""
		case 3:
			// FILTER on an intermediate variable (or on ?o for
			// one-hop chains).
			v := "o"
			if len(levels[0]) > 1 {
				v = "c0v0"
			}
			ban := kg.members[0][0][rng.Intn(len(kg.members[0][0]))]
			if v == "o" {
				ban = chainIRI("o%d", rng.Intn(10))
			}
			fmt.Fprintf(&body, "FILTER(?%s != %s) ", v, ban)
			filters = append(filters, func(b refBinding) bool { return b[v] != ban })
		case 4:
			// FILTER EXISTS: the observation also links to a given
			// level-0 member of chain 1.
			m := kg.members[1][0][rng.Intn(len(kg.members[1][0]))]
			fmt.Fprintf(&body, "FILTER EXISTS { ?o <http://chain.test/c1h0> %s } ", m)
			link := rdf.NewTriple(rdf.Term{}, chainIRI("c1h0"), m)
			filters = append(filters, func(b refBinding) bool {
				link.S = b["o"]
				return st.Contains(link)
			})
		}
		src := head + " WHERE { " + body.String() + vals.String() + "} " + tail

		q, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		var patterns []TriplePattern
		var blocks []ValuesElement
		for _, el := range q.Where {
			switch x := el.(type) {
			case TriplePattern:
				patterns = append(patterns, x)
			case ValuesElement:
				blocks = append(blocks, x)
			}
		}
		var ref []refBinding
		for _, s := range refValues(refSolve(kg.triples, patterns), blocks) {
			keep := true
			for _, f := range filters {
				keep = keep && f(s)
			}
			if keep {
				ref = append(ref, s)
			}
		}

		res, err := eng.QueryString(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		base, _ := dfsDirect(t, eng, src, false, res.Vars)
		if _, pn := dfsDirect(t, eng, src, true, nil); len(pn.Children) > 0 && pn.Children[0].Op == "semijoin" {
			reduced++
		}
		if q.Ask {
			if res.Boolean != (len(ref) > 0) || res.Boolean != (len(base) > 0) {
				t.Fatalf("trial %d: ASK = %v, reference %d solutions, unreduced %d\n%s",
					trial, res.Boolean, len(ref), len(base), src)
			}
			continue
		}
		if want := min(q.Limit, len(ref)); res.Len() != want {
			t.Fatalf("trial %d: %d rows, want %d (reference total %d)\n%s", trial, res.Len(), want, len(ref), src)
		}
		if !sameRows(res.Rows, base) {
			t.Fatalf("trial %d: rows differ from the unreduced DFS\n got %v\nwant %v\n%s", trial, res.Rows, base, src)
		}
		refSet := map[string]bool{}
		for _, s := range canonical(res.Vars, ref) {
			refSet[s] = true
		}
		for _, r := range res.Rows {
			b := refBinding{}
			for i, v := range res.Vars {
				if Bound(r[i]) {
					b[v] = r[i]
				}
			}
			if s := canonical(res.Vars, []refBinding{b})[0]; !refSet[s] {
				t.Fatalf("trial %d: row %v is not a reference solution\n%s", trial, r, src)
			}
		}
	}
	if reduced < 60 {
		t.Errorf("only %d of 120 trials took the reduction", reduced)
	}
}

// TestSemijoinKeepsFirstRows checks, on the existing fixtures (the
// exec test store and the generated eurostat and dbpedia cubes), that
// witness queries with random multi-member VALUES return exactly the
// rows of the unreduced DFS.
func TestSemijoinKeepsFirstRows(t *testing.T) {
	type fixture struct {
		name    string
		st      *store.Store
		queries []string
	}
	small := testStore(t)
	ex := func(s string) string { return "<http://ex.org/" + s + ">" }
	fixtures := []fixture{{name: "exec", st: small, queries: []string{
		"SELECT ?o ?c WHERE { ?o " + ex("origin") + " ?c . ?c " + ex("inContinent") + " ?k . ?o " + ex("dest") +
			" ?d . VALUES ?k { " + ex("Asia") + " " + ex("Europe") + " } VALUES ?d { " + ex("fr") + " } } LIMIT 1",
		"SELECT ?o WHERE { ?o " + ex("origin") + " ?c . ?o " + ex("dest") + " ?d . VALUES ?c { " +
			ex("sy") + " " + ex("cn") + " } VALUES ?d { " + ex("de") + " } } LIMIT 3",
	}}}
	rng := rand.New(rand.NewSource(5))
	for _, spec := range []datagen.Spec{datagen.EurostatLike(150), datagen.DBpediaLike(150)} {
		st, err := spec.BuildStore()
		if err != nil {
			t.Fatal(err)
		}
		fx := fixture{name: spec.Name, st: st}
		// Every root-to-level path of the spec, with its member count.
		type level struct {
			preds   []string
			members int
		}
		var paths []level
		var walk func(prefix []string, ls []datagen.LevelSpec)
		walk = func(prefix []string, ls []datagen.LevelSpec) {
			for _, l := range ls {
				p := append(append([]string(nil), prefix...), l.Pred)
				paths = append(paths, level{p, l.Members})
				walk(p, l.Children)
			}
		}
		for _, d := range spec.Dimensions {
			paths = append(paths, level{[]string{d.Pred}, d.Members})
			walk([]string{d.Pred}, d.Children)
		}
		for i := 0; i < 40; i++ {
			var b strings.Builder
			b.WriteString("SELECT * WHERE { ?o a <" + spec.ObservationClass() + "> . ")
			used := map[string]bool{}
			for k, n := 0, 2+rng.Intn(3); k < n; k++ {
				l := paths[rng.Intn(len(paths))]
				if used[l.preds[0]] {
					continue
				}
				used[l.preds[0]] = true
				var iris []string
				for _, p := range l.preds {
					iris = append(iris, "<"+spec.NS+p+">")
				}
				fmt.Fprintf(&b, "?o %s ?x%d . VALUES ?x%d {", strings.Join(iris, "/"), k, k)
				for m := 1 + rng.Intn(3); m > 0; m-- {
					fmt.Fprintf(&b, " <%s%s/m%d>", spec.NS, strings.Join(l.preds, "/"), rng.Intn(l.members))
				}
				b.WriteString(" } ")
			}
			fmt.Fprintf(&b, "} LIMIT %d", 1+2*rng.Intn(2))
			fx.queries = append(fx.queries, b.String())
		}
		fixtures = append(fixtures, fx)
	}
	for _, fx := range fixtures {
		eng := NewEngine(fx.st)
		reduced := 0
		for _, src := range fx.queries {
			res, err := eng.QueryString(src)
			if err != nil {
				t.Fatalf("%s: %v\n%s", fx.name, err, src)
			}
			base, _ := dfsDirect(t, eng, src, false, res.Vars)
			if !sameRows(res.Rows, base) {
				t.Fatalf("%s: rows differ from the unreduced DFS\n got %v\nwant %v\n%s", fx.name, res.Rows, base, src)
			}
			if _, pn := dfsDirect(t, eng, src, true, nil); len(pn.Children) > 0 && pn.Children[0].Op == "semijoin" {
				reduced++
			}
		}
		if reduced == 0 {
			t.Errorf("%s: no query took the reduction", fx.name)
		}
	}
}

// TestSemijoinGate checks the reduction stays off where it cannot pay:
// a single VALUES anchor, and a VALUES variable left UNDEF by some row.
func TestSemijoinGate(t *testing.T) {
	kg := newChainKG(rand.New(rand.NewSource(3)), 50, fourChainLevels[:2])
	eng := NewEngine(kg.store(t))
	one := witnessSrc(kg, [][]rdf.Term{kg.tail(0)[:2]}, "SELECT ?o", "LIMIT 1")
	undef := witnessSrc(kg, [][]rdf.Term{kg.tail(0)[:1], {kg.tail(1)[0], {}}}, "SELECT ?o", "LIMIT 1")
	both := witnessSrc(kg, [][]rdf.Term{kg.tail(0)[:1], kg.tail(1)[:1]}, "SELECT ?o", "LIMIT 1")
	for src, want := range map[string]bool{one: false, undef: false, both: true} {
		_, pn := dfsDirect(t, eng, src, true, nil)
		got := len(pn.Children) > 0 && pn.Children[0].Op == "semijoin"
		if got != want {
			t.Errorf("reduction applied = %v, want %v\n%s", got, want, src)
		}
	}
}
