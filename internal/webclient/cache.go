package webclient

import (
	"container/list"

	"lcrs/internal/collab"
)

// Session-scoped recognition cache (DESIGN.md §14). The paper's workload
// is a camera held on a logo: consecutive frames are near-identical, and
// after the conv1 activation is quantized by the offload codec they are
// frequently bit-identical. The client hashes the payload it is about to
// send (collab.TensorKey) and, on a key it has seen recently, reuses the
// edge's previous answer instead of paying encode + uplink + queue +
// forward again — the temporal-locality complement to the entropy early
// exit.
//
// The cache is content-addressed, so it cannot serve a wrong answer for a
// frame it actually matches: an entry is only ever returned for a payload
// whose bytes hash identically to the one that produced it. What *can* go
// stale is the edge's side of the answer (a redeployed model, a changed
// label set), which is why WithRevalidateEvery bounds how many hits an
// entry may serve before the next identical frame is offloaded anyway to
// refresh it.
//
// Concurrency: a Client runs one recognition at a time (see the Client
// doc), and the cache is touched only inside a recognition, so it needs no
// lock. The hit *count* crosses goroutines via the pendingCacheHits atomic
// exactly like pendingExits.

// cacheEntry is one remembered recognition answer.
type cacheEntry struct {
	key  collab.Key
	pred int
	// uses counts hits served since the entry was last validated against
	// the edge; revalidation triggers when it reaches the configured
	// interval.
	uses int
}

// sessionCache is a bounded LRU of (frame key -> answer).
type sessionCache struct {
	cap int
	lru *list.List // front = most recent; values are *cacheEntry
	idx map[collab.Key]*list.Element
}

func newSessionCache(n int) *sessionCache {
	return &sessionCache{cap: n, lru: list.New(), idx: make(map[collab.Key]*list.Element, n)}
}

// get returns the entry for key and marks it most recently used.
func (c *sessionCache) get(key collab.Key) *cacheEntry {
	el, ok := c.idx[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put records a validated answer for key, resetting its revalidation
// clock, and evicts the least recently used entry when full.
func (c *sessionCache) put(key collab.Key, pred int) {
	if el, ok := c.idx[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.pred = pred
		ent.uses = 0
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.idx, oldest.Value.(*cacheEntry).key)
	}
	c.idx[key] = c.lru.PushFront(&cacheEntry{key: key, pred: pred})
}

// clear drops every cached answer — called when RevalidateBundle installs
// a new model version, whose answers the old entries no longer represent.
func (c *sessionCache) clear() {
	c.lru.Init()
	c.idx = make(map[collab.Key]*list.Element, c.cap)
}

// Len reports the number of cached answers.
func (c *sessionCache) Len() int { return c.lru.Len() }
