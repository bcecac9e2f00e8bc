package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"re2xolap/internal/rdf"
)

// Snapshot format: a compact binary serialization of the store that
// loads an order of magnitude faster than re-parsing N-Triples (see
// BenchmarkSnapshot). Layout, all integers varint-encoded:
//
//	magic "R2XS" | version u8
//	term count | per term: kind u8, value, [datatype, lang for literals]
//	triple count | per triple: s, p, o as dictionary IDs
//
// Strings are length-prefixed. The snapshot stores the compacted
// triple set; the delta is flushed by Compact before writing.

const (
	snapshotMagic   = "R2XS"
	snapshotVersion = 1
)

// WriteSnapshot serializes the store. The store is compacted first.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.Compact()
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	d := s.dict
	writeUvarint(bw, uint64(len(d.terms)))
	for _, t := range d.terms {
		if err := writeTerm(bw, t); err != nil {
			return err
		}
	}
	entries := s.base[0].entries
	writeUvarint(bw, uint64(len(entries)))
	for _, e := range entries {
		writeUvarint(bw, uint64(e[0]))
		writeUvarint(bw, uint64(e[1]))
		writeUvarint(bw, uint64(e[2]))
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot into a
// fresh store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("store: not a snapshot (magic %q)", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", version)
	}
	s := New()
	nTerms, err := readCount(br, r, "term", minTermBytes)
	if err != nil {
		return nil, err
	}
	terms := make([]rdf.Term, 0, min(nTerms, maxPrealloc))
	for i := uint64(0); i < nTerms; i++ {
		t, err := readTerm(br)
		if err != nil {
			return nil, fmt.Errorf("store: term %d: %w", i, err)
		}
		terms = append(terms, t)
		if id := s.dict.Encode(t); id != ID(i+1) {
			return nil, fmt.Errorf("store: duplicate term %v in snapshot", t)
		}
	}
	nTriples, err := readCount(br, r, "triple", minTripleBytes)
	if err != nil {
		return nil, err
	}
	entries := make([]spoTriple, 0, min(nTriples, maxPrealloc))
	for i := uint64(0); i < nTriples; i++ {
		var e spoTriple
		for j := 0; j < 3; j++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("store: triple %d: %w", i, err)
			}
			if v == 0 || v > nTerms {
				return nil, fmt.Errorf("store: triple %d references unknown term %d", i, v)
			}
			e[j] = ID(v)
		}
		entries = append(entries, e)
		// Rebuild the full-text index for literal objects.
		obj := terms[e[2]-1]
		if obj.IsLiteral() {
			s.text.add(e[2], obj.Value)
		}
	}
	// The snapshot preserved SPO order; rebuild the other permutations.
	s.base[0].entries = entries
	s.base[0].sortEntries()
	for i := 1; i < 3; i++ {
		perm := s.base[i].p
		batch := make([]spoTriple, len(entries))
		for j, t := range entries {
			batch[j] = perm.reorder(t)
		}
		s.base[i].entries = batch
		s.base[i].sortEntries()
	}
	return s, nil
}

// A count header is checked before anything is allocated for it, so a
// corrupt or hostile snapshot cannot make the reader allocate more
// than its input could describe. The smallest term is a kind byte and
// an empty value's length; the smallest triple is three one-byte IDs.
// Readers that cannot tell how much input is left still preallocate at
// most maxPrealloc items and grow as the items actually arrive.
const (
	minTermBytes   = 2
	minTripleBytes = 3
	maxPrealloc    = 1 << 16
)

// readCount reads an item count and rejects one that exceeds the ID
// range or that the unread input (br's buffer plus what r has left,
// when r can tell) is too short to hold at minBytes per item.
func readCount(br *bufio.Reader, r io.Reader, what string, minBytes uint64) (uint64, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("store: %s count: %w", what, err)
	}
	if n > math.MaxUint32 {
		return 0, fmt.Errorf("store: %s count %d exceeds the ID range", what, n)
	}
	if rest, ok := unread(r); ok {
		if rest += int64(br.Buffered()); n > uint64(rest)/minBytes {
			return 0, fmt.Errorf("store: %s count %d does not fit in the %d bytes left", what, n, rest)
		}
	}
	return n, nil
}

// unread reports how many bytes r has left, for the readers that can
// say: in-memory readers and seekable files.
func unread(r io.Reader) (int64, bool) {
	switch x := r.(type) {
	case interface{ Len() int }:
		return int64(x.Len()), true
	case io.Seeker:
		cur, err := x.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		end, err := x.Seek(0, io.SeekEnd)
		if _, err2 := x.Seek(cur, io.SeekStart); err != nil || err2 != nil {
			return 0, false
		}
		return end - cur, true
	}
	return 0, false
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) error {
	writeUvarint(w, uint64(len(s)))
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<28 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// term kind encoding: low 2 bits = TermKind; bit 2 = has datatype,
// bit 3 = has lang.
func writeTerm(w *bufio.Writer, t rdf.Term) error {
	kind := byte(t.Kind)
	if t.Datatype != "" {
		kind |= 1 << 2
	}
	if t.Lang != "" {
		kind |= 1 << 3
	}
	if err := w.WriteByte(kind); err != nil {
		return err
	}
	if err := writeString(w, t.Value); err != nil {
		return err
	}
	if t.Datatype != "" {
		if err := writeString(w, t.Datatype); err != nil {
			return err
		}
	}
	if t.Lang != "" {
		if err := writeString(w, t.Lang); err != nil {
			return err
		}
	}
	return nil
}

func readTerm(r *bufio.Reader) (rdf.Term, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return rdf.Term{}, err
	}
	k := rdf.TermKind(kind & 3)
	if k > rdf.TermLiteral {
		return rdf.Term{}, fmt.Errorf("bad term kind %d", k)
	}
	t := rdf.Term{Kind: k}
	if t.Value, err = readString(r); err != nil {
		return rdf.Term{}, err
	}
	if kind&(1<<2) != 0 {
		if t.Datatype, err = readString(r); err != nil {
			return rdf.Term{}, err
		}
	}
	if kind&(1<<3) != 0 {
		if t.Lang, err = readString(r); err != nil {
			return rdf.Term{}, err
		}
	}
	if (t.Datatype != "" || t.Lang != "") && t.Kind != rdf.TermLiteral {
		return rdf.Term{}, fmt.Errorf("non-literal term with datatype/lang")
	}
	return t, nil
}
