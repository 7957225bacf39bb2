// Package memo holds the two memoization primitives the serving stack
// shares: Flights, which coalesces concurrent executions by key, and
// LRU, a bounded map. The engine's program tier and the front's
// request flight run on Flights; the engine's result, program and
// skeleton caches and the in-process artifact store each hold an LRU.
package memo

import (
	"container/list"
	"sync"
)

// LRU is a bounded map that evicts the least recently used entry past
// its limit. All methods are safe for concurrent use.
type LRU[T any] struct {
	limit int

	mu    sync.Mutex
	items map[string]*list.Element // values are *lruItem[T]
	order list.List                // most recently used first
}

type lruItem[T any] struct {
	key string
	val T
}

// NewLRU returns an empty LRU holding at most limit entries.
func NewLRU[T any](limit int) *LRU[T] {
	return &LRU[T]{limit: limit, items: map[string]*list.Element{}}
}

// Get returns key's value and marks it most recently used.
func (c *LRU[T]) Get(key string) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero T
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[T]).val, true
}

// Put stores key's value as the most recently used, evicting the
// least recently used entry past the limit.
func (c *LRU[T]) Put(key string, val T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[T]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruItem[T]{key: key, val: val})
	if c.order.Len() > c.limit {
		victim := c.order.Remove(c.order.Back()).(*lruItem[T])
		delete(c.items, victim.key)
	}
}

// Keys lists the keys held, most recently used first.
func (c *LRU[T]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruItem[T]).key)
	}
	return keys
}

// Len returns the number of entries held.
func (c *LRU[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
