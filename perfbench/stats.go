package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail metric may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: with fewer, the "percentile" is one or two
// outliers and does not repeat from run to run.
const minBeyond = 10

// samplesFor returns the sample count a percentile needs so that at
// least minBeyond samples lie beyond it.
func samplesFor(pct float64) int {
	// The tolerance keeps rounding error in 1-pct/100 from turning 100
	// into 101.
	return int(math.Ceil(minBeyond/(1-pct/100) - 1e-6))
}

// tailPercentile returns the highest ladder percentile that n samples
// support, and false when even the median is unsupported.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n >= samplesFor(p) {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile of xs (sorted or not;
// xs is not modified). It returns NaN on no samples.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
