// Package lru holds the two caching primitives the rest of the module
// shares: Cache, a bounded least-recently-used map, and Group, a
// context-aware single-flight that coalesces concurrent identical
// work. Metrics and admission policy (what may be cached, what counts
// as a hit) stay with the callers. Hand-rolled because the module has
// no dependencies.
package lru

import (
	"container/list"
	"context"
	"sync"
)

// Cache is a string-keyed map bounded to a fixed number of entries,
// evicting the least recently used. Safe for concurrent use.
type Cache[V any] struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element
	l   list.List // front = most recently used; values are *entry[V]
}

// entry is one occupant: the key rides along so eviction can delete
// the map slot.
type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most max entries (max < 1 is
// treated as 1).
func New[V any](max int) *Cache[V] {
	if max < 1 {
		max = 1
	}
	return &Cache[V]{max: max, m: make(map[string]*list.Element)}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.l.MoveToFront(e)
	return e.Value.(*entry[V]).val, true
}

// Put stores val under key as the most recently used entry and
// returns how many entries were evicted to stay within the bound (0
// or 1). Overwriting an existing key refreshes it without growing the
// cache.
func (c *Cache[V]) Put(key string, val V) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.Value.(*entry[V]).val = val
		c.l.MoveToFront(e)
		return 0
	}
	c.m[key] = c.l.PushFront(&entry[V]{key: key, val: val})
	if c.l.Len() <= c.max {
		return 0
	}
	oldest := c.l.Back()
	c.l.Remove(oldest)
	delete(c.m, oldest.Value.(*entry[V]).key)
	return 1
}

// Len returns the current occupancy.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// Purge drops every entry.
func (c *Cache[V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.Init()
	clear(c.m)
}

// Group coalesces concurrent calls for the same key: the first caller
// runs the work and callers arriving while it runs wait for its
// result. Nothing is remembered once the call returns — carrying
// answers across time is a Cache's job. The zero value is ready to
// use; a Group must not be copied after first use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// call is one in-flight execution: the leader closes done after
// setting val and err, and waiters read them only after done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn under key unless a call for key is already in flight, in
// which case it waits for that call and returns its result with
// shared = true. A waiter whose own ctx ends first stops waiting and
// returns ctx.Err(), still with shared = true; the running call is
// unaffected. Whether a shared error is worth retrying is the
// caller's decision.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
