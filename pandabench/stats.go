package main

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// xs is sorted in place. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

// median is the 50th percentile by the same rule.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate per second over d: exponential gaps drawn from rng, so the same seed
// gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
