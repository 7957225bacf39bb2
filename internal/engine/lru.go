package engine

import (
	"container/list"
	"sync"
)

// lru is a bounded in-memory map that evicts the least recently used
// entry past its limit. The result cache, the program tier and the
// skeleton tier's memory layer each hold one.
type lru[T any] struct {
	limit int

	mu    sync.Mutex
	items map[string]*list.Element // values are *lruItem[T]
	order list.List                // most recently used first
}

type lruItem[T any] struct {
	key string
	val T
}

func newLRU[T any](limit int) *lru[T] {
	return &lru[T]{limit: limit, items: map[string]*list.Element{}}
}

// get returns key's value and marks it most recently used.
func (c *lru[T]) get(key string) (T, bool) {
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

// put stores key's value as the most recently used, evicting the
// least recently used entry past the limit.
func (c *lru[T]) put(key string, val T) {
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

// len returns the number of entries held.
func (c *lru[T]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
