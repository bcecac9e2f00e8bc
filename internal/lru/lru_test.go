package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheLRUEviction pins the cache mechanics every user relies on:
// least-recently-used order, the bound, overwrite refreshing recency
// without growing, the eviction count Put reports, and Purge.
func TestCacheLRUEviction(t *testing.T) {
	c := New[[]int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	if n := c.Put("a", nil) + c.Put("b", nil); n != 0 {
		t.Fatalf("puts below the bound evicted %d", n)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// a was just used, so inserting c at capacity evicts b.
	if n := c.Put("c", nil); n != 1 {
		t.Fatalf("put at capacity evicted %d, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a wrongly evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}

	// Overwrite replaces the value, refreshes recency, and does not grow.
	c.Put("c", nil)
	if n := c.Put("a", []int{1}); n != 0 {
		t.Fatalf("overwrite evicted %d", n)
	}
	if v, ok := c.Get("a"); !ok || len(v) != 1 {
		t.Errorf("overwrite lost: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("cache grew to %d on overwrite", c.Len())
	}
	c.Put("d", nil) // a was refreshed last, so c goes
	if _, ok := c.Get("c"); ok {
		t.Error("c survived; overwrite did not refresh a")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("refreshed a was evicted")
	}

	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len after Purge = %d", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("purged entry still served")
	}
	c.Put("e", nil)
	if c.Len() != 1 {
		t.Errorf("len after Purge+Put = %d, want 1", c.Len())
	}
}

// waitProbe is a context that reports, once, when Do first asks for
// its Done channel — which a follower does when it starts waiting on
// the leader — so tests wait on that event instead of sleeping.
type waitProbe struct {
	context.Context
	once    sync.Once
	waiting chan<- struct{}
}

func (p *waitProbe) Done() <-chan struct{} {
	p.once.Do(func() { p.waiting <- struct{}{} })
	return p.Context.Done()
}

// TestGroupCoalesces: 32 concurrent callers for one key cost one
// execution, and the 31 that arrived while it ran report a shared
// result.
func TestGroupCoalesces(t *testing.T) {
	var g Group[int]
	const n = 32
	var execs atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, error) {
		execs.Add(1)
		close(started)
		<-release
		return 42, nil
	}

	vals := make([]int, n)
	shared := make([]bool, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], shared[0], _ = g.Do(context.Background(), "k", fn)
	}()
	<-started
	waiting := make(chan struct{}, n-1)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := &waitProbe{Context: context.Background(), waiting: waiting}
			var err error
			vals[i], shared[i], err = g.Do(ctx, "k", fn)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}(i)
	}
	for i := 1; i < n; i++ {
		<-waiting
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	var nShared int
	for i := range vals {
		if vals[i] != 42 {
			t.Errorf("caller %d got %d, want 42", i, vals[i])
		}
		if shared[i] {
			nShared++
		}
	}
	if shared[0] || nShared != n-1 {
		t.Errorf("%d callers shared (leader shared=%v), want %d followers", nShared, shared[0], n-1)
	}
}

// TestGroupWaiterOwnContext: a follower whose own context ends stops
// waiting with its context error; the leader's call is unaffected.
func TestGroupWaiterOwnContext(t *testing.T) {
	var g Group[string]
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	var leaderVal string
	go func() {
		var err error
		leaderVal, _, err = g.Do(context.Background(), "k", func() (string, error) {
			close(started)
			<-release
			return "done", nil
		})
		leader <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan struct{}, 1)
	follower := make(chan error, 1)
	go func() {
		_, _, err := g.Do(&waitProbe{Context: ctx, waiting: waiting}, "k", func() (string, error) {
			t.Error("follower ran fn while the leader was in flight")
			return "", nil
		})
		follower <- err
	}()
	<-waiting
	cancel()
	if err := <-follower; !errors.Is(err, context.Canceled) {
		t.Errorf("abandoning follower: got %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leader; err != nil || leaderVal != "done" {
		t.Errorf("leader after follower left: %q, %v", leaderVal, err)
	}
}
