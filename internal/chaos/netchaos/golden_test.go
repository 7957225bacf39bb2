package netchaos

import (
	"fmt"
	"strings"
	"testing"
)

// TestStreamGolden pins the first decision words of every fault
// family, the hashed partition matrix, and the Plans sweep for fixed
// seeds, so a storm seed replays the same faults on every build. The
// values were recorded before the mixer and site hash moved to
// internal/seeded, and must still match after.
func TestStreamGolden(t *testing.T) {
	p := Plan{Seed: 11, PartitionRate: 512}
	var got []string
	salts := []uint64{saltLatency, saltDrop, saltHang, saltPartition, salt5xx,
		saltTruncate, saltBitFlip, saltDiskWrite, saltDiskRead}
	for i, salt := range salts {
		site := fmt.Sprintf("127.0.0.1:%d/v1/jobs", 9000+i)
		got = append(got, fmt.Sprintf("%x %x %x", p.roll(salt, site, 0), p.roll(salt, site, 1), p.roll(salt, site, 99)))
	}
	hosts := []string{"a:1", "b:2", "c:3", "d:4"}
	var matrix strings.Builder
	for _, from := range hosts {
		for _, to := range hosts {
			if p.Partitioned(from, to) {
				matrix.WriteByte('x')
			} else {
				matrix.WriteByte('.')
			}
		}
	}
	got = append(got, matrix.String())
	for _, q := range Plans(3, 10) {
		got = append(got, q.Name())
	}
	if g := strings.Join(got, "\n"); g != goldenNetStreams {
		t.Fatalf("netchaos streams drifted:\ngot:\n%s\nwant:\n%s", g, goldenNetStreams)
	}
}

const goldenNetStreams = `be1c3caa56664185 1b1e7c205aeeb954 5259ad45f2f30f83
f024394d4142df3d 9be63133a7468851 3ce2e08df1c227dc
37e6ed09b503d1b8 7fcafef6434af028 16c21e1c20409f45
15b69d9c4a650492 1e0a1e8c2df36bee fafa484748673d87
701f32169a0be880 300e7a00487d7f86 ed82ddbfa38e9845
2e74b957dea02e85 303c49473ff0eaa6 e36a88eb7a4171c6
d86a6b0bd3e07e6 27414d561ca19309 b9aa4db98063baff
7095a8bd3db3f22b 375ed09d51cabbb8 62ef0e04a4b0cacf
35698ad01c290851 e7c1b15cd10147ef b02474c49bdcb3ab
.x.x.xx...x.x...
netplan(seed=3 lat=0/0ms drop=64 hang=32 part=0 5xx=0 trunc=0 flip=0 dw=0 dr=0)
netplan(seed=4 lat=128/32ms drop=0 hang=0 part=0 5xx=0 trunc=0 flip=0 dw=0 dr=0)
netplan(seed=5 lat=0/0ms drop=0 hang=0 part=0 5xx=0 trunc=64 flip=64 dw=0 dr=0)
netplan(seed=6 lat=0/0ms drop=0 hang=0 part=32 5xx=64 trunc=0 flip=0 dw=0 dr=0)
netplan(seed=7 lat=256/64ms drop=64 hang=32 part=64 5xx=64 trunc=128 flip=128 dw=64 dr=32)
netplan(seed=8 lat=0/0ms drop=16 hang=8 part=0 5xx=0 trunc=0 flip=0 dw=0 dr=0)
netplan(seed=9 lat=64/13ms drop=0 hang=0 part=0 5xx=0 trunc=0 flip=0 dw=0 dr=0)
netplan(seed=10 lat=0/0ms drop=0 hang=0 part=0 5xx=0 trunc=64 flip=64 dw=0 dr=0)
netplan(seed=11 lat=0/0ms drop=0 hang=0 part=16 5xx=32 trunc=0 flip=0 dw=0 dr=0)
netplan(seed=12 lat=64/50ms drop=16 hang=8 part=16 5xx=16 trunc=32 flip=32 dw=16 dr=8)`
