package service

import (
	"container/list"
	"time"

	"mrclone/internal/store"
)

// CachedResult is one content-addressed cache entry: the artifact bytes of a
// completed matrix (JSON, CSV and AggregateCSV renderings of runner.Result),
// keyed by the spec's canonical hash, with the matrix size and computation
// time. It is the disk store's entry type, so results move between the
// memory cache, the disk store and peer shards without conversion. Entries
// loaded back from disk keep their original CreatedAt, so TTL expiry is
// anchored to artifact age, not process uptime. All fields are immutable
// after insertion and may be served to any number of clients concurrently;
// because the runner is deterministic, these bytes are exactly what
// recomputing the spec would produce.
type CachedResult = store.Artifacts

// cacheEntryOverhead approximates the per-entry bookkeeping cost so even a
// degenerate zero-byte artifact consumes budget.
const cacheEntryOverhead = 256

// entrySize is an entry's charge against the cache byte budget.
func entrySize(r *CachedResult) int64 {
	return int64(len(r.JSON)+len(r.CSV)+len(r.AggregateCSV)) + cacheEntryOverhead
}

// lruCache is a non-thread-safe LRU over CachedResult accounted in artifact
// bytes, with optional TTL expiry anchored to CreatedAt; the service guards
// it with its own mutex.
type lruCache struct {
	maxBytes int64
	ttl      time.Duration // 0 = entries never expire
	now      func() time.Time

	bytes   int64
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // hash -> element holding *CachedResult
}

// newLRUCache builds a cache holding at most maxBytes of artifact bytes
// (non-positive disables caching) whose entries expire ttl after their
// computation time (0 = never).
func newLRUCache(maxBytes int64, ttl time.Duration) *lruCache {
	return &lruCache{
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      time.Now,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

func (c *lruCache) expired(res *CachedResult) bool {
	return c.ttl > 0 && c.now().Sub(res.CreatedAt) > c.ttl
}

// get returns the entry and promotes it to most recently used. An entry past
// its TTL is dropped and reported as a miss.
func (c *lruCache) get(hash string) (*CachedResult, bool) {
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	res := el.Value.(*CachedResult)
	if c.expired(res) {
		c.remove(el)
		return nil, false
	}
	c.order.MoveToFront(el)
	return res, true
}

// add inserts (or refreshes) an entry, evicting least-recently-used entries
// until the byte budget holds. The newest entry is always retained, so a
// single matrix larger than the whole budget is still served to the
// submissions that raced its computation. A non-positive budget disables
// caching.
func (c *lruCache) add(res *CachedResult) {
	if c.maxBytes <= 0 || c.expired(res) {
		return
	}
	if el, ok := c.entries[res.Hash]; ok {
		c.bytes += entrySize(res) - entrySize(el.Value.(*CachedResult))
		c.order.MoveToFront(el)
		el.Value = res
	} else {
		c.entries[res.Hash] = c.order.PushFront(res)
		c.bytes += entrySize(res)
	}
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		c.remove(c.order.Back())
	}
}

// expire drops every entry past its TTL, returning how many were removed.
// Expiry is by creation time, not recency, so the whole list is walked.
func (c *lruCache) expire() int {
	removed := 0
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		if c.expired(el.Value.(*CachedResult)) {
			c.remove(el)
			removed++
		}
	}
	return removed
}

func (c *lruCache) remove(el *list.Element) {
	c.order.Remove(el)
	res := el.Value.(*CachedResult)
	c.bytes -= entrySize(res)
	delete(c.entries, res.Hash)
}

// len returns the number of cached entries.
func (c *lruCache) len() int { return c.order.Len() }

// sizeBytes returns the bytes currently charged against the budget.
func (c *lruCache) sizeBytes() int64 { return c.bytes }
