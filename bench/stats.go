package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to say anything about the tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail can be reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples; the slack keeps p*n/100 from rounding up past an integer.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending samples, 0 for none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := min(max(rank(len(sorted), p), 1), len(sorted))
	return sorted[k-1]
}

// beyond counts the samples of n that lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentile is the highest percentile of the ladder that has at
// least minBeyond samples beyond it among n, 0 when even the median
// has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count), 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so spreads printed here match the ones a Python script
// computes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// Verdicts of a parent/change comparison on one (workload, metric).
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a parent (a) and a change (b) on one
// metric. better is "lower" or "higher"; bound is the share of the
// parent's median by which the change may be worse before it counts
// as a regression. The rules follow the choosing-metrics method: a
// spread wider than the bound leaves the metric unresolved unless
// every change run beats every parent run; a gain needs the change to
// win nine tenths of the index-aligned pairs and the medians to differ
// by more than the parent's own interquartile range.
func judge(a, b []float64, better string, bound float64) (verdict string, worseBy float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved, 0
	}
	lower := better == "lower"
	// gain > 0 means x reads better than y.
	gain := func(x, y float64) float64 {
		if lower {
			return y - x
		}
		return x - y
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		worseBy = -gain(mb, ma) / math.Abs(ma)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	if math.Max(spread(a), spread(b)) > bound {
		if allBetter {
			return verdictImproved, worseBy
		}
		return verdictUnresolved, worseBy
	}
	if worseBy > bound {
		return verdictWorse, worseBy
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if gain(b[i], a[i]) > 0 {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	if float64(wins) >= 0.9*float64(pairs) && gain(mb, ma) > q3-q1 {
		return verdictImproved, worseBy
	}
	return verdictUnchanged, worseBy
}

// ratio formats a ratio with its base count, e.g. "0.0716 (24/335)".
func ratio(num, den int) (float64, string) {
	base := fmt.Sprintf("%d/%d", num, den)
	if den == 0 {
		return 0, base
	}
	return float64(num) / float64(den), base
}
