package group

import "sync"

// maxFixedBases bounds the Precompute'd tables a backend keeps. A
// serving key precomputes its pk and, once per renewal epoch, every
// peer's public share V(j): 64 tables at n ≤ 64, so 256 keep the last
// few epochs of one key, or several keys, in about 0.75 MiB of p256
// comb tables. Beyond it the oldest table goes: an evicted base takes
// the untabled path, and a later Precompute builds its table again.
const maxFixedBases = 256

// baseCache maps fixed bases to their tables, evicting in insertion
// order beyond maxFixedBases. It is safe for concurrent use.
type baseCache[K comparable, V any] struct {
	mu    sync.RWMutex
	m     map[K]V
	order []K // insertion order, oldest first
}

// get returns the table of k, if cached.
func (c *baseCache[K, V]) get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

// put caches v for k unless k already has a table, then evicts the
// oldest entries beyond maxFixedBases.
func (c *baseCache[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[K]V)
	}
	if _, ok := c.m[k]; ok {
		return
	}
	c.m[k] = v
	c.order = append(c.order, k)
	for len(c.order) > maxFixedBases {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
}
