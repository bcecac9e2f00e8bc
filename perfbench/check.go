package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"re2xolap/internal/core"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
)

// answerDigest hashes the SPARQL JSON encoding of res: two answers with
// equal digests are byte-identical on the wire.
func answerDigest(res *sparql.Results) string {
	if res == nil {
		return "nil"
	}
	var b bytes.Buffer
	if err := endpoint.EncodeResults(&b, res); err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// rowSet renders res's variables and rows canonically sorted, for an
// order-insensitive comparison.
func rowSet(res *sparql.Results) string {
	if res == nil {
		return "nil"
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = sparql.CanonicalRowKey(r)
	}
	sort.Strings(rows)
	return fmt.Sprint(res.Vars, res.Boolean, rows)
}

// candidatesDigest hashes the SPARQL of every synthesized candidate, in
// the order synthesis returned them.
func candidatesDigest(cands []core.Candidate) string {
	h := sha256.New()
	for _, c := range cands {
		h.Write([]byte(c.Query.ToSPARQL()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// checker counts answers that differ from their reference. It keeps
// the first few mismatches so a failing run can say what broke.
type checker struct {
	mu       sync.Mutex
	failed   int
	examples []string
}

// expect reports whether got equals want, counting a failure if not.
func (c *checker) expect(what, want, got string) bool {
	if want == got {
		return true
	}
	c.fail(fmt.Sprintf("%s: want %.16s got %.16s", what, want, got))
	return false
}

func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.examples) < 5 {
		c.examples = append(c.examples, msg)
	}
}

func (c *checker) notes(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.examples {
		r.notef("mismatch %s", e)
	}
}

// synthDigests is the reference for the synth workload: the candidate
// digest of every example in the fixed example pool, recorded once with
// -write-synth-digest and kept beside the benchmark.
//
//go:embed testdata/synth_digest.txt
var synthDigestFile []byte

func parseDigests(b []byte) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("synth digest: bad line %q", line)
		}
		out[k] = v
	}
	return out, sc.Err()
}

func formatDigests(m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("# example key -> digest of its synthesized candidate SPARQL (perfbench -write-synth-digest)\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, m[k])
	}
	return b.Bytes()
}
