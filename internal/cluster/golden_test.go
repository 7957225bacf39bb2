package cluster

import (
	"strings"
	"testing"
)

// TestStreamGolden pins the seeded probe order: three full shuffled
// rounds over five members. The values were recorded before the
// splitmix64 stream moved to internal/seeded, and must still match.
func TestStreamGolden(t *testing.T) {
	seeds := []string{"http://a", "http://b", "http://c", "http://d", "http://e"}
	n, err := New(testConfig("http://self", seeds, 9))
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	var order []string
	for i := 0; i < 3*len(seeds); i++ {
		order = append(order, strings.TrimPrefix(n.pickTargetLocked(), "http://"))
	}
	n.mu.Unlock()
	if g := strings.Join(order, " "); g != goldenProbeOrder {
		t.Fatalf("probe order drifted:\ngot:  %s\nwant: %s", g, goldenProbeOrder)
	}
}

const goldenProbeOrder = `c e b a d e b c a d a d c b e`
