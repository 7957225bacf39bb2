package store

import (
	"strings"
	"testing"
)

// TestRankGolden pins rendezvous orders for fixed keys. Every shard
// and front computes placement independently, so the hash behind Rank
// must never drift between builds. The values were recorded before
// FNV-1a moved to internal/seeded, and must still match.
func TestRankGolden(t *testing.T) {
	nodes := []string{"http://s0:8080", "http://s1:8080", "http://s2:8080", "http://s3:8080", "http://s4:8080"}
	var got []string
	for _, k := range []string{"", "00", "deadbeef", key(1), key(2), key(3)} {
		got = append(got, strings.Join(Rank(k, nodes), ","))
	}
	if g := strings.Join(got, "\n"); g != goldenRank {
		t.Fatalf("rendezvous order drifted:\ngot:\n%s\nwant:\n%s", g, goldenRank)
	}
}

const goldenRank = `http://s4:8080,http://s2:8080,http://s1:8080,http://s3:8080,http://s0:8080
http://s4:8080,http://s0:8080,http://s1:8080,http://s3:8080,http://s2:8080
http://s3:8080,http://s2:8080,http://s4:8080,http://s0:8080,http://s1:8080
http://s4:8080,http://s0:8080,http://s2:8080,http://s1:8080,http://s3:8080
http://s2:8080,http://s0:8080,http://s1:8080,http://s4:8080,http://s3:8080
http://s2:8080,http://s0:8080,http://s3:8080,http://s1:8080,http://s4:8080`
