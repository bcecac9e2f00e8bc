package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// TestSingleFlight32 is the acceptance test: 32 concurrent identical
// queries execute the engine exactly once; the other 31 coalesce onto
// that execution and every answer is byte-identical.
func TestSingleFlight32(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 200 * time.Millisecond})
	inner := &countingClient{inner: fault}
	reg := obs.NewRegistry()
	s := New(inner, WithRegistry(reg)) // no cache: dedup alone must carry this
	ctx := context.Background()

	const n = 32
	type answer struct {
		res  *sparql.Results
		meta endpoint.QueryMeta
		err  error
	}
	answers := make([]answer, n)
	var wg sync.WaitGroup

	// The leader goes first and is held in flight by the injected
	// latency; the 31 duplicates arrive while it runs.
	leaderIn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(leaderIn)
		res, meta, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
		answers[0] = answer{res, meta, err}
	}()
	<-leaderIn
	time.Sleep(50 * time.Millisecond)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, meta, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
			answers[i] = answer{res, meta, err}
		}(i)
	}
	wg.Wait()

	if got := inner.n.Load(); got != 1 {
		t.Fatalf("engine executed %d times, want exactly 1", got)
	}
	first := encode(t, answers[0].res)
	var coalesced int
	for i, a := range answers {
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if a.meta.Coalesced {
			coalesced++
		}
		if !bytes.Equal(encode(t, a.res), first) {
			t.Errorf("request %d answer diverges from the leader's", i)
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d requests coalesced, want %d", coalesced, n-1)
	}
	if v := reg.Counter("re2xolap_serve_coalesced_total", "").Value(); v != n-1 {
		t.Errorf("coalesced counter = %d, want %d", v, n-1)
	}
	if v := reg.Counter("re2xolap_serve_executions_total", "").Value(); v != 1 {
		t.Errorf("executions counter = %d, want 1", v)
	}
}

// TestSingleFlightDistinctQueriesDoNotCoalesce: dedup keys on the
// canonical query, so different queries run independently.
func TestSingleFlightDistinctQueriesDoNotCoalesce(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 50 * time.Millisecond})
	inner := &countingClient{inner: fault}
	s := New(inner)
	ctx := context.Background()

	var wg sync.WaitGroup
	queries := []string{
		`SELECT ?v WHERE { <http://t/s0> <http://t/value> ?v }`,
		`SELECT ?v WHERE { <http://t/s1> <http://t/value> ?v }`,
	}
	for _, q := range queries {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if _, meta, err := s.QueryX(ctx, endpoint.Request{Query: q}); err != nil {
				t.Error(err)
			} else if meta.Coalesced {
				t.Error("distinct query was coalesced")
			}
		}(q)
	}
	wg.Wait()
	if got := inner.n.Load(); got != 2 {
		t.Errorf("engine executed %d times, want 2", got)
	}
}

// TestSingleFlightDuplicateHonorsOwnContext: a duplicate whose context
// expires abandons the wait with its own context error; the leader is
// unaffected.
func TestSingleFlightDuplicateHonorsOwnContext(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 200 * time.Millisecond})
	s := New(fault)
	ctx := context.Background()

	leaderIn := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		close(leaderIn)
		_, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
		leaderDone <- err
	}()
	<-leaderIn
	time.Sleep(30 * time.Millisecond)

	dupCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	_, _, err := s.QueryX(dupCtx, endpoint.Request{Query: valueQuery})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("abandoning duplicate: got %v, want deadline exceeded", err)
	}
	if err := <-leaderDone; err != nil {
		t.Errorf("leader failed after duplicate abandoned: %v", err)
	}
}

// waitProbe is a context that reports, once, when a caller first asks
// for its Done channel: a single-flight follower does that when it
// starts waiting on the leader, so tests wait on the event instead of
// sleeping.
type waitProbe struct {
	context.Context
	once    sync.Once
	waiting chan<- struct{}
}

func (p *waitProbe) Done() <-chan struct{} {
	p.once.Do(func() { p.waiting <- struct{}{} })
	return p.Context.Done()
}

// awaitExecutions waits until n queries have reached the counting
// client.
func awaitExecutions(t *testing.T, c *countingClient, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.n.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d executions started, want %d", c.n.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightFollowerSurvivesLeaderCancel: when the leader's
// client goes away mid-execution, a coalesced follower whose own
// context is live gets the answer (by running the query itself), not
// the leader's cancellation.
func TestSingleFlightFollowerSurvivesLeaderCancel(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 200 * time.Millisecond})
	inner := &countingClient{inner: fault}
	s := New(inner, WithResultCache(16))
	want, err := endpoint.NewInProcess(st).Query(context.Background(), valueQuery)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.QueryX(leaderCtx, endpoint.Request{Query: valueQuery})
		leaderErr <- err
	}()
	awaitExecutions(t, inner, 1)

	waiting := make(chan struct{}, 1)
	type answer struct {
		res  *sparql.Results
		meta endpoint.QueryMeta
		err  error
	}
	follower := make(chan answer, 1)
	go func() {
		ctx := &waitProbe{Context: context.Background(), waiting: waiting}
		res, meta, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
		follower <- answer{res, meta, err}
	}()
	<-waiting
	time.Sleep(time.Until(start.Add(50 * time.Millisecond)))
	cancel()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled leader: got %v, want context.Canceled", err)
	}
	got := <-follower
	if got.err != nil {
		t.Fatalf("follower with a live context failed: %v", got.err)
	}
	if !bytes.Equal(encode(t, got.res), encode(t, want)) {
		t.Error("follower answer diverges from a direct execution")
	}
	if n := inner.n.Load(); n != 2 {
		t.Errorf("engine executed %d times, want 2 (cancelled leader, then follower)", n)
	}
}

// failingClient fails every query with a permanent error.
type failingClient struct{}

func (failingClient) Query(context.Context, string) (*sparql.Results, error) {
	return nil, endpoint.MarkPermanent(errors.New("serve test: permanent failure"))
}

// TestSingleFlightSharesPermanentError: a leader error that is not its
// own cancellation is shared, so concurrent identical requests for a
// failing query still cost one execution.
func TestSingleFlightSharesPermanentError(t *testing.T) {
	fault := endpoint.NewFault(failingClient{}, endpoint.FaultConfig{Latency: 200 * time.Millisecond})
	inner := &countingClient{inner: fault}
	s := New(inner, WithResultCache(16))
	ctx := context.Background()

	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	}()
	awaitExecutions(t, inner, 1)
	waiting := make(chan struct{}, n-1)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.QueryX(&waitProbe{Context: ctx, waiting: waiting}, endpoint.Request{Query: valueQuery})
		}(i)
	}
	for i := 1; i < n; i++ {
		<-waiting
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, endpoint.ErrPermanent) {
			t.Errorf("request %d: got %v, want the permanent inner error", i, err)
		}
	}
	if got := inner.n.Load(); got != 1 {
		t.Errorf("engine executed %d times, want 1", got)
	}
}
