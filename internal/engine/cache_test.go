package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/store"
)

// The result cache's memory layer holds at most resultMemLimit entries,
// and a key it evicted is still served, from the backing store.
func TestResultCacheMemoryIsBounded(t *testing.T) {
	metrics := func(i int) Metrics {
		return Metrics{Workload: "w", Result: int64(i), Output: []int64{int64(i), 7}, Cycles: int64(1000 + i)}
	}
	for _, backed := range []bool{false, true} {
		c := NewCache()
		if backed {
			c = NewStoreCache(store.NewMem())
		}
		const n = 5000
		for i := 0; i < n; i++ {
			c.Put(fmt.Sprint(i), metrics(i))
		}
		if got := c.Len(); got != resultMemLimit {
			t.Fatalf("backed=%v: %d distinct puts left %d entries in memory, want %d", backed, n, got, resultMemLimit)
		}
		if !backed {
			continue
		}
		// Key 0 was the least recently used: evicted from memory, kept
		// in the store.
		before := c.Stats()
		m, ok := c.Get("0")
		if !ok {
			t.Fatal("evicted key missed, though the store holds it")
		}
		if st := c.Stats(); st.DiskHits != before.DiskHits+1 {
			t.Fatalf("evicted key: %d store hits, want %d", st.DiskHits, before.DiskHits+1)
		}
		if !reflect.DeepEqual(m, metrics(0)) {
			t.Fatalf("evicted key returned %+v, want %+v", m, metrics(0))
		}
	}
}
