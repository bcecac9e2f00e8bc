package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"re2xolap/internal/rdf"
)

func snapshotRoundTrip(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	_ = s.AddAll([]rdf.Triple{
		tr("s1", "p1", "o1"),
		rdf.NewTriple(iri("s1"), iri("label"), rdf.NewString("Hello World")),
		rdf.NewTriple(iri("s2"), iri("label"), rdf.NewLangString("ciao", "it")),
		rdf.NewTriple(iri("s2"), iri("value"), rdf.NewInteger(42)),
		rdf.NewTriple(rdf.NewBlank("b1"), iri("p1"), rdf.NewDouble(2.5)),
	})
	got := snapshotRoundTrip(t, s)
	if got.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), s.Len())
	}
	want := map[rdf.Triple]bool{}
	for _, tri := range s.Triples() {
		want[tri] = true
	}
	for _, tri := range got.Triples() {
		if !want[tri] {
			t.Errorf("unexpected triple %v", tri)
		}
	}
	// Full-text index is rebuilt.
	if ids := got.TextSearch("hello"); len(ids) != 1 {
		t.Errorf("text search after load = %v", ids)
	}
	// Numeric cache is rebuilt.
	vid, ok := got.Dict().Lookup(rdf.NewInteger(42))
	if !ok {
		t.Fatal("integer term missing")
	}
	if n, isNum := got.Dict().Numeric(vid); !isNum || n != 42 {
		t.Errorf("numeric cache = %v/%v", n, isNum)
	}
}

func TestSnapshotFlushesDelta(t *testing.T) {
	s := New()
	s.autoCompact = 0
	_ = s.Add(tr("s", "p", "o"))
	got := snapshotRoundTrip(t, s)
	if got.Len() != 1 {
		t.Errorf("delta triple lost: Len = %d", got.Len())
	}
}

func TestSnapshotErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("R2XS\xff"),     // bad version
		[]byte("R2XS\x01\x02"), // truncated terms
		append([]byte("R2XS\x01\x01\x00\x03abc\x01\x01"), 9, 9, 9), // triple refs unknown term
	}
	for i, b := range bad {
		if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: bad snapshot accepted", i)
		}
	}
}

// TestSnapshotRejectsHugeCounts checks that a count header claiming
// more items than the input holds fails fast instead of allocating for
// the claim: 2^40 terms overflows the ID range, 2^31 terms cannot fit
// in the few bytes that follow, and a reader that cannot tell its
// length fails at the end of its input after allocating only what
// arrived.
func TestSnapshotRejectsHugeCounts(t *testing.T) {
	header := func(counts ...uint64) []byte {
		b := []byte("R2XS\x01")
		for _, n := range counts {
			b = binary.AppendUvarint(b, n)
		}
		return append(b, "\x00\x03abc"...)
	}
	cases := map[string]io.Reader{
		"2^40 terms":              bytes.NewReader(header(1 << 40)),
		"2^31 terms":              bytes.NewReader(header(1 << 31)),
		"2^31 terms, no length":   io.MultiReader(bytes.NewReader(header(1 << 31))),
		"2^40 triples":            bytes.NewReader(append(header(1), binary.AppendUvarint(nil, 1<<40)...)),
		"2^31 triples, no length": io.MultiReader(bytes.NewReader(append(header(1), binary.AppendUvarint(nil, 1<<31)...))),
	}
	for name, r := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
			t.Errorf("%s: allocated %d bytes before failing", name, grown)
		}
	}
}

// Property: a randomly populated store survives a snapshot round trip
// with identical query behaviour.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < int(n); i++ {
			var obj rdf.Term
			switch rng.Intn(3) {
			case 0:
				obj = iri(fmt.Sprintf("o%d", rng.Intn(10)))
			case 1:
				obj = rdf.NewString(fmt.Sprintf("label %d", rng.Intn(10)))
			default:
				obj = rdf.NewInteger(int64(rng.Intn(100)))
			}
			if s.Add(rdf.NewTriple(iri(fmt.Sprintf("s%d", rng.Intn(10))), iri(fmt.Sprintf("p%d", rng.Intn(4))), obj)) != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if s.WriteSnapshot(&buf) != nil {
			return false
		}
		got, err := ReadSnapshot(&buf)
		if err != nil || got.Len() != s.Len() {
			return false
		}
		want := map[rdf.Triple]bool{}
		for _, tri := range s.Triples() {
			want[tri] = true
		}
		for _, tri := range got.Triples() {
			if !want[tri] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotVersusNTriples(t *testing.T) {
	// The snapshot and N-Triples export of the same store must load to
	// equivalent stores.
	s := New()
	_ = s.AddAll([]rdf.Triple{
		tr("a", "p", "b"),
		rdf.NewTriple(iri("a"), iri("l"), rdf.NewString("tricky \"x\"\nnewline")),
	})
	var nt strings.Builder
	for _, tri := range s.Triples() {
		nt.WriteString(tri.String())
		nt.WriteByte('\n')
	}
	fromNT := New()
	if _, err := fromNT.Load(strings.NewReader(nt.String())); err != nil {
		t.Fatal(err)
	}
	fromSnap := snapshotRoundTrip(t, s)
	if fromNT.Len() != fromSnap.Len() {
		t.Errorf("NT = %d triples, snapshot = %d", fromNT.Len(), fromSnap.Len())
	}
}
