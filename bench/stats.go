package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the full
// sample: the smallest value with at least a q share of the sample at or
// below it. It never interpolates and never reads histogram buckets, so a
// reported p90 is a latency some request actually had. Empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value, averaging the middle pair of an even sample
// (the convention of Python's statistics.median, which the acceptance spread
// check uses).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// windowRate is the throughput of a phase as the median over `windows` equal
// time windows, so one noisy-neighbour burst moves at most one window and
// not the reported rate. done holds completion times as offsets from the
// phase start, ascending; span is the phase length. A window's rate is its
// completion count over the time from the last completion before the window
// to the last completion inside it — in a closed loop that is the reciprocal
// of the mean service time of exactly those operations, so a window holding
// six half-second steps is not quantised to "five or six per window". A
// window without a completion contributes rate 0.
func windowRate(done []time.Duration, span time.Duration, windows int) float64 {
	if len(done) == 0 || span <= 0 || windows <= 0 {
		return 0
	}
	rates := make([]float64, 0, windows)
	prev := time.Duration(0) // the phase start stands in for "completion before the first window"
	i := 0
	for w := 1; w <= windows; w++ {
		end := span * time.Duration(w) / time.Duration(windows)
		n := 0
		last := prev
		for i < len(done) && (done[i] < end || w == windows) {
			last = done[i]
			n++
			i++
		}
		if n == 0 || last <= prev {
			rates = append(rates, 0)
			continue
		}
		rates = append(rates, float64(n)/(last-prev).Seconds())
		prev = last
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
