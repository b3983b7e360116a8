// Package lru provides a small thread-safe fixed-capacity least-recently-
// used map keyed by string. It holds every per-identity table in the tree —
// kgcd's partial-key cache and its rate limiter's buckets, and the
// Verifier's signer records, which would otherwise grow without bound under
// a flood of unique identities — so all carry the same bounded-memory
// guarantee.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a thread-safe fixed-capacity least-recently-used map.
type Cache[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New creates a cache bounded to max entries (minimum 1). The map is not
// pre-sized to the bound: an empty cache costs the same whatever max is.
func New[V any](max int) *Cache[V] {
	if max < 1 {
		max = 1
	}
	return &Cache[V]{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value for key, evicting the least recently
// used entry when over capacity.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	c.evict()
}

// GetOrCreate returns the value for key, inserting newV() under the lock
// if absent — the atomic fetch-or-insert that makes two concurrent callers
// for a fresh key share one value: the rate limiter's token bucket, the
// Verifier's signer record. newV must not call back into the cache.
func (c *Cache[V]) GetOrCreate(key string, newV func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val
	}
	v := newV()
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	c.evict()
	return v
}

// evict drops the least recently used entry while over capacity. Callers
// hold c.mu.
func (c *Cache[V]) evict() {
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
