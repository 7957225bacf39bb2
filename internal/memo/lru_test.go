package memo

import (
	"fmt"
	"testing"
)

// TestLRU: an LRU holds its limit and evicts the least recently used
// entry.
func TestLRU(t *testing.T) {
	const limit = 16
	c := NewLRU[int](limit)
	for i := range limit {
		c.Put(fmt.Sprint(i), i)
	}
	c.Get("0") // now most recently used
	c.Put("new", -1)
	if _, ok := c.Get("1"); ok {
		t.Error("least recently used entry survived eviction")
	}
	if v, ok := c.Get("0"); !ok || v != 0 {
		t.Errorf("Get(0) = %v, %v; want 0, true", v, ok)
	}
	if v, ok := c.Get("new"); !ok || v != -1 {
		t.Errorf("Get(new) = %v, %v; want -1, true", v, ok)
	}
	c.Put("0", 7) // an update keeps one entry
	if v, _ := c.Get("0"); v != 7 || c.Len() != limit || c.order.Len() != limit {
		t.Errorf("after update: Get(0) = %d, %d entries (%d ordered), want 7 and %d", v, c.Len(), c.order.Len(), limit)
	}
}
