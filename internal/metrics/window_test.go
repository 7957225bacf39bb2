package metrics

import (
	"sync"
	"testing"
)

func TestQuantileRule(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.5, 6}, {0.9, 10}, {0.95, 10}, {1, 10}, {-1, 1}} {
		if got := Quantile(ten, c.q); got != c.want {
			t.Errorf("Quantile(1..10, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64(nil), 0.5); got != 0 {
		t.Errorf("empty slice quantile = %v, want 0", got)
	}
}

// TestWindowKeepsLatest: once full, the window answers over the last
// capacity samples only, while Count keeps the lifetime total.
func TestWindowKeepsLatest(t *testing.T) {
	w := NewWindow(4)
	if v, n := w.Quantile(0.5); v != 0 || n != 0 {
		t.Fatalf("empty window = (%d, %d)", v, n)
	}
	for v := int64(10); v >= 1; v-- {
		w.Record(v)
	}
	// Retained: 4, 3, 2, 1.
	if v, n := w.Quantile(0); v != 1 || n != 4 {
		t.Fatalf("min = (%d, %d), want (1, 4)", v, n)
	}
	if v, _ := w.Quantile(0.99); v != 4 {
		t.Fatalf("max = %d, want 4", v)
	}
	w.Record(100)
	if v, _ := w.Quantile(0.99); v != 100 {
		t.Fatalf("max after new sample = %d, want 100", v)
	}
	if c := w.Count(); c != 11 {
		t.Fatalf("Count = %d, want 11", c)
	}
	if a := testing.AllocsPerRun(100, func() { w.Record(5); w.Quantile(0.5) }); a != 0 {
		t.Fatalf("Record+Quantile allocate %v per call", a)
	}
}

func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Record(int64(i))
				w.Quantile(0.95)
			}
		}()
	}
	wg.Wait()
	if _, n := w.Quantile(0.5); n != 64 || w.Count() != 2000 {
		t.Fatalf("retained %d count %d, want 64 and 2000", n, w.Count())
	}
}
