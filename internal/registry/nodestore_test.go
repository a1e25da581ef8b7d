package registry

import (
	"math/big"
	"sync"
	"testing"
)

// cacheVal returns a node value of words big.Words, each equal to w.
func cacheVal(words int, w big.Word) *big.Int {
	ws := make([]big.Word, words)
	for i := range ws {
		ws[i] = w
	}
	return new(big.Int).SetBits(ws)
}

// cached reports whether c holds k, and checks the byte accounting.
func cached(t *testing.T, c *nodeCache, k nodeKey) bool {
	t.Helper()
	var used int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		used += nodeBytes(el.Value.(*nodeEntry).val)
	}
	if used != c.used || len(c.entries) != c.order.Len() {
		t.Fatalf("accounting: %d bytes and %d keys listed, %d bytes and %d keys recorded", used, c.order.Len(), c.used, len(c.entries))
	}
	_, ok := c.entries[k]
	return ok
}

// TestNodeCacheBudgetAndLRU: a hit returns the cached pointer, a full
// cache evicts its least recently used node, an evicted node is
// rebuilt, a value larger than the whole budget is returned but not
// retained, and an unlimited cache never evicts.
func TestNodeCacheBudgetAndLRU(t *testing.T) {
	size := nodeBytes(cacheVal(5, 1))
	builds := 0
	build := func(k nodeKey) func() *big.Int {
		return func() *big.Int { builds++; return cacheVal(5, big.Word(k.index+1)) }
	}
	k0, k1, k2 := nodeKey{1, 0}, nodeKey{1, 1}, nodeKey{1, 2}
	c := newNodeCache(2*size + size/2) // room for two values
	a := c.get(k0, build(k0))
	if got := c.get(k0, build(k0)); got != a || builds != 1 {
		t.Fatalf("second get of one key: same pointer %v, %d builds; want true, 1", got == a, builds)
	}
	c.get(k1, build(k1))
	c.get(k0, build(k0)) // k1 is now the least recently used
	c.get(k2, build(k2)) // evicts k1
	if !cached(t, c, k0) || cached(t, c, k1) || !cached(t, c, k2) || c.used != 2*size {
		t.Fatalf("after evicting the LRU node: k0 %v, k1 %v, k2 %v, %d bytes", cached(t, c, k0), cached(t, c, k1), cached(t, c, k2), c.used)
	}
	if got := c.get(k1, build(k1)); builds != 4 || got.Bits()[0] != 2 {
		t.Fatalf("evicted node: %d builds, want 4 (k1 rebuilt)", builds)
	}
	if cached(t, c, k0) { // k0 was the LRU node when k1 came back
		t.Fatal("k0 survived the eviction that readmitted k1")
	}

	tiny := newNodeCache(size - 1)
	if v := tiny.get(k0, build(k0)); v == nil || cached(t, tiny, k0) || tiny.used != 0 {
		t.Fatalf("value larger than the budget: got %v, retained %v, %d bytes", v, cached(t, tiny, k0), tiny.used)
	}

	unl := newNodeCache(0)
	for i := 0; i < 50; i++ {
		k := nodeKey{1, i}
		unl.get(k, build(k))
	}
	if unl.order.Len() != 50 || unl.used != 50*size || !cached(t, unl, k0) {
		t.Fatalf("unlimited cache holds %d nodes in %d bytes, want 50 in %d", unl.order.Len(), unl.used, 50*size)
	}
}

// TestNodeCachePutDrop: put keeps the first value of a key, drop
// removes a node so the next get rebuilds it, dropping an absent key
// does nothing, and an oversized put is returned but not retained.
func TestNodeCachePutDrop(t *testing.T) {
	size := nodeBytes(cacheVal(2, 1))
	c := newNodeCache(2*size + size/2)
	k := nodeKey{3, 3}
	first := c.put(k, cacheVal(1, 1))
	if second := c.put(k, cacheVal(1, 2)); second != first {
		t.Fatal("second put did not return the retained value")
	}
	c.drop(k)
	c.drop(nodeKey{4, 4})
	if cached(t, c, k) || c.used != 0 {
		t.Fatalf("drop left the node: %d bytes", c.used)
	}
	if rebuilt := c.get(k, func() *big.Int { return cacheVal(2, 3) }); len(rebuilt.Bits()) != 2 {
		t.Fatal("drop did not invalidate the node")
	}
	huge := cacheVal(100, 1)
	if got := c.put(nodeKey{9, 9}, huge); got != huge || cached(t, c, nodeKey{9, 9}) || !cached(t, c, k) {
		t.Fatal("an oversized put was retained or evicted the cache")
	}
}

// TestNodeCacheConcurrent: concurrent gets over more keys than the
// budget holds always return the key's value, and the accounting holds.
func TestNodeCacheConcurrent(t *testing.T) {
	size := nodeBytes(cacheVal(1, 1))
	c := newNodeCache(4 * size)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := nodeKey{1, i % 17}
				v := c.get(k, func() *big.Int { return cacheVal(1, big.Word(k.index+1)) })
				if v.Uint64() != uint64(k.index+1) {
					t.Errorf("key %v: got %d", k, v.Uint64())
					return
				}
			}
		}()
	}
	wg.Wait()
	cached(t, c, nodeKey{})
	if c.used > c.budget {
		t.Fatalf("%d bytes cached over a %d-byte budget", c.used, c.budget)
	}
}
