package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	for _, p := range tailLadder {
		n := samplesFor(p)
		if beyond := float64(n) * (1 - p/100); beyond < minBeyond-1e-9 {
			t.Errorf("samplesFor(%v) = %d leaves %.2f samples beyond", p, n, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestFailedRequestsStayOutOfTheLatencies(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	// 98 requests answered in 2 ms, 2 refused: the refusals show in the
	// failed count, not as latencies.
	var res []reqResult
	for i := 0; i < 100; i++ {
		r := reqResult{due: at(i), start: at(i), done: at(i + 2)}
		if i%50 == 49 {
			r.err = errors.New("refused")
		}
		res = append(res, r)
	}
	lat := latenciesMs(res)
	if len(lat) != 98 || percentile(lat, 99) != 2 {
		t.Errorf("answered latencies: %d samples, p99 %v; want 98 samples of 2 ms", len(lat), percentile(lat, 99))
	}
}
