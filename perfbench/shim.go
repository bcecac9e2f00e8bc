package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
)

// call is what a shim saw of one query at its boundary.
type call struct {
	step string
	wall time.Duration
	meta endpoint.QueryMeta
	res  *sparql.Results
	op   uint64 // trace of the benchmark op that issued it; 0 outside ops
}

// shim is the benchmark's wrapper at a Client boundary: it records a
// span named name around each query, lays the engine phases QueryMeta
// reports out as child spans, and hands every call to observe. It
// unwraps to inner, so generation probes see through it exactly as
// they see through the program's own decorators.
type shim struct {
	inner   endpoint.Client
	name    string
	rec     *recorder
	observe func(call)
}

func (s *shim) Unwrap() endpoint.Client { return s.inner }

func (s *shim) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, _, err := s.QueryX(ctx, endpoint.Request{Query: q})
	return res, err
}

func (s *shim) QueryX(ctx context.Context, req endpoint.Request) (*sparql.Results, endpoint.QueryMeta, error) {
	ctx, sp := s.rec.begin(ctx, s.name)
	res, meta, err := endpoint.QueryX(ctx, s.inner, req)
	wall := sp.end()
	if meta.HasPhases {
		// Phases are durations, not intervals: lay them end to end from
		// the span's start, so the engine's unphased remainder shows as
		// the shim's own time.
		p := meta.Phases
		at := sp.start
		at = sp.child("sparql.parse", at, p.Parse)
		at = sp.child("sparql.plan", at, p.Plan)
		at = sp.child("sparql.join", at, p.Join)
		at = sp.child("sparql.aggregate", at, p.Aggregate)
		sp.child("sparql.sort", at, p.Sort)
	}
	if s.observe != nil {
		step := req.Opts.Step
		if step == "" {
			step = meta.Step
		}
		s.observe(call{step: step, wall: wall, meta: meta, res: res, op: sp.ref.trace})
	}
	return res, meta, err
}

// wrap returns c behind a shim when tracing, c itself otherwise: the
// untraced run measures the program with no shim inside it.
func wrap(rec *recorder, c endpoint.Client, name string, observe func(call)) endpoint.Client {
	if rec == nil {
		return c
	}
	return &shim{inner: c, name: name, rec: rec, observe: observe}
}

// parentHeader carries the caller's span across a loopback HTTP hop so
// server-side spans join the op's trace. Only traced runs send it.
const parentHeader = "X-Perfbench-Parent"

// transport counts response bytes and stamps parentHeader. It is the
// http.RoundTripper handed to endpoint.WithHTTPClient in traced runs.
type transport struct {
	base     http.RoundTripper
	rec      *recorder
	name     string
	received atomic.Int64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := t.rec.begin(req.Context(), t.name)
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		req = req.Clone(ctx)
		req.Header.Set(parentHeader, strconv.FormatUint(ref.trace, 10)+"-"+strconv.FormatUint(ref.id, 10))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	// The span covers the response body too: decoding reads it, so the
	// span ends when the client closes the body.
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.received, done: sp.end}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	once sync.Once
	done func() time.Duration
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done() })
	return b.ReadCloser.Close()
}

// newHTTPClient is the http.Client a stack's endpoint.HTTPClient uses:
// the program default when untraced, the counting transport when
// traced.
func newHTTPClient(t *transport) *http.Client {
	if t == nil {
		return nil
	}
	return &http.Client{Timeout: 15 * time.Minute, Transport: t}
}

// serverSpans wraps a server's handler so each request records a span
// (named name) under the caller's span from parentHeader.
func serverSpans(rec *recorder, name string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if tr, id, ok := strings.Cut(r.Header.Get(parentHeader), "-"); ok {
			t, err1 := strconv.ParseUint(tr, 10, 64)
			i, err2 := strconv.ParseUint(id, 10, 64)
			if err1 == nil && err2 == nil {
				ctx = context.WithValue(ctx, spanKey{}, spanRef{trace: t, id: i})
			}
		}
		ctx, sp := rec.begin(ctx, name)
		defer sp.end()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
