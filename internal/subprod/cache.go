package subprod

import (
	"container/list"
	"math/big"
	"sync"
)

// CacheStats is a point-in-time accounting snapshot of a Cache.
type CacheStats struct {
	// Hits and Misses count Get calls served from (resp. absent from)
	// the cache; Builds counts build invocations (>= Misses only when
	// concurrent Gets race on the same key).
	Hits, Misses, Builds int64
	// Evictions counts entries dropped to stay under the budget.
	Evictions int64
	// Bytes is the current cached payload size; Entries the entry count.
	Bytes   int64
	Entries int
}

// KeyedCache is a byte-budgeted LRU cache of subproducts, generic over
// the key type: the hybrid engine keys tile subproducts by tile index,
// the key registry keys persistent tree nodes by (level, index) pairs.
// It is safe for concurrent use. Values must be treated as read-only by
// callers (they are shared across workers).
//
// Internally the cache is an array of independently locked shards, each
// with its own LRU list and an even slice of the byte budget.
// NewKeyedCache and NewCache build a single shard — one strict global
// LRU, the right shape when access is already serialized (the registry
// probes its node store under the registry lock) or values can be large
// relative to the budget (a shard never retains a value bigger than its
// own slice). NewCacheShards spreads int keys across 2^k shards so the
// hybrid engine's workers, whose tile probes all land on this cache
// from the hot filter loop, contend on shards instead of one global
// mutex; eviction then approximates LRU per shard rather than globally,
// which costs at most a shard's budget slice of staleness.
//
// A Get miss builds outside the lock, so two workers racing on the same
// key may both build; the extra build is wasted work, never a
// correctness issue (the first insert wins and both callers return
// equal values).
type KeyedCache[K comparable] struct {
	mask   uint64
	shards []cacheShard[K]
	hash   func(K) uint64
}

type cacheShard[K comparable] struct {
	mu      sync.Mutex
	budget  int64 // <= 0 means unlimited
	used    int64
	order   *list.List // front = most recently used; values are *cacheEntry[K]
	entries map[K]*list.Element

	hits, misses, builds, evictions int64
	_                               [24]byte // keep neighbouring shard locks off one cache line
}

type cacheEntry[K comparable] struct {
	key K
	val *big.Int
}

// Cache is the tile-index-keyed cache the hybrid engine uses.
type Cache = KeyedCache[int]

// NewCache returns a tile-index-keyed cache holding at most budget bytes
// of subproduct payload, counted in big.Word bytes (budget <= 0 means
// unlimited). A single value larger than the whole budget is handed to
// the caller but never retained.
func NewCache(budget int64) *Cache { return NewKeyedCache[int](budget) }

// NewCacheShards is NewCache split over enough 2^k shards to give each
// of workers goroutines its own lock in expectation (capped at 16).
// The byte budget divides evenly across the shards, so a single value
// larger than budget/shards is handed out but never retained, and LRU
// eviction is per shard. Tile indices are sequential, so key&mask
// spreads neighbouring tiles across distinct shards.
func NewCacheShards(budget int64, workers int) *Cache {
	shards := 1
	for shards < workers && shards < 16 {
		shards *= 2
	}
	c := newKeyedCache[int](budget, shards)
	c.hash = func(k int) uint64 { return uint64(k) }
	return c
}

// NewKeyedCache is NewCache for an arbitrary comparable key type.
func NewKeyedCache[K comparable](budget int64) *KeyedCache[K] {
	return newKeyedCache[K](budget, 1)
}

func newKeyedCache[K comparable](budget int64, shards int) *KeyedCache[K] {
	c := &KeyedCache[K]{mask: uint64(shards - 1), shards: make([]cacheShard[K], shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.budget = budget / int64(shards)
		if budget > 0 && s.budget < 1 {
			s.budget = 1
		}
		s.order = list.New()
		s.entries = map[K]*list.Element{}
	}
	return c
}

func (c *KeyedCache[K]) shard(key K) *cacheShard[K] {
	if c.hash == nil {
		return &c.shards[0]
	}
	return &c.shards[c.hash(key)&c.mask]
}

// Get returns the cached value for key, building and (budget permitting)
// inserting it on a miss.
func (c *KeyedCache[K]) Get(key K, build func() *big.Int) *big.Int {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		v := el.Value.(*cacheEntry[K]).val
		s.hits++
		s.mu.Unlock()
		return v
	}
	s.misses++
	s.builds++
	s.mu.Unlock()

	v := build()

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(key, v)
}

// Put inserts a value built elsewhere (budget permitting) and returns
// the retained value: the already-cached one when a racing worker got
// there first, v otherwise.
func (c *KeyedCache[K]) Put(key K, v *big.Int) *big.Int {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(key, v)
}

// insertLocked adds v under key unless the key is already present, then
// evicts from the LRU tail until the shard's budget holds. Callers hold
// the shard lock.
func (s *cacheShard[K]) insertLocked(key K, v *big.Int) *big.Int {
	if el, ok := s.entries[key]; ok {
		// A racing worker inserted first; its value is identical.
		s.order.MoveToFront(el)
		return el.Value.(*cacheEntry[K]).val
	}
	size := nodeBytes(v)
	if s.budget > 0 && size > s.budget {
		return v // larger than the shard's whole budget: use, don't retain
	}
	s.entries[key] = s.order.PushFront(&cacheEntry[K]{key: key, val: v})
	s.used += size
	for s.budget > 0 && s.used > s.budget && s.order.Len() > 1 {
		back := s.order.Back()
		e := back.Value.(*cacheEntry[K])
		s.order.Remove(back)
		delete(s.entries, e.key)
		s.used -= nodeBytes(e.val)
		s.evictions++
	}
	return v
}

// Drop removes key from the cache if present (the registry invalidates
// rebuilt nodes after a quarantine divides a leaf out of their products).
func (c *KeyedCache[K]) Drop(key K) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry[K])
		s.order.Remove(el)
		delete(s.entries, key)
		s.used -= nodeBytes(e.val)
	}
}

// Stats returns a snapshot of the cache accounting, summed over shards.
func (c *KeyedCache[K]) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Builds += s.builds
		st.Evictions += s.evictions
		st.Bytes += s.used
		st.Entries += s.order.Len()
		s.mu.Unlock()
	}
	return st
}
