package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: with fewer, the percentile is an extrapolation.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (sorting xs in
// place) and how many samples lie strictly beyond its rank.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// tail returns the q-quantile of xs, the samples beyond it, and
// whether they are at least minBeyond.
func tail(xs []float64, q float64) (v float64, beyond int, ok bool) {
	v, beyond = quantile(xs, q)
	return v, beyond, beyond >= minBeyond
}

// median returns the nearest-rank median of xs, sorting xs in place.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
