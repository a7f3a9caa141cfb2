package main

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/setsystem"
)

// shape fixes the instances a workload generates.
type shape struct {
	sets     int     // m, the number of sets
	loadLo   int     // smallest load σ(u)
	loadHi   int     // largest load σ(u)
	capacity int     // b(u), the same for every element
	zipf     float64 // Zipf exponent of the set weights; 0 means unit weights
	batch    int     // elements per batch
	batches  int     // batches in the pool
}

// pool is the fixed element sequence a run cycles through: batch k of
// the run is pool batch k mod len(batches). Its members live in one
// arena, so the generator's heap does not grow with run length and its
// garbage collector has little to scan. Nothing mutates a pool after
// newPool returns; the client and the cluster coordinator may retain
// its elements for as long as they like.
type pool struct {
	info    core.Info
	all     []setsystem.Element
	batches [][]setsystem.Element // views of all, batch elements each
}

// newPool draws a pool from seed. Members are drawn by Floyd's
// sampling, σ(u) distinct sets in O(σ) instead of a permutation of all
// m sets per element. The declared size of a set is its membership
// count in one pass over the pool (at least 1, as registration
// requires).
func newPool(sh shape, seed int64) *pool {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, sh.sets)
	if sh.zipf > 0 {
		// Rank r (1-based) weighs 10/r^s; ranks are shuffled so weight
		// is uncorrelated with SetID.
		for i, r := range rng.Perm(sh.sets) {
			weights[i] = 10 / math.Pow(float64(r+1), sh.zipf)
		}
	} else {
		for i := range weights {
			weights[i] = 1
		}
	}
	n := sh.batch * sh.batches
	arena := make([]setsystem.SetID, 0, n*sh.loadHi)
	elements := make([]setsystem.Element, n)
	sizes := make([]int, sh.sets)
	for i := range elements {
		sigma := sh.loadLo + rng.Intn(sh.loadHi-sh.loadLo+1)
		start := len(arena)
		arena = floyd(arena, rng, sh.sets, sigma)
		members := arena[start:len(arena):len(arena)]
		for _, s := range members {
			sizes[s]++
		}
		elements[i] = setsystem.Element{Members: members, Capacity: sh.capacity}
	}
	for i, c := range sizes {
		if c == 0 {
			sizes[i] = 1
		}
	}
	p := &pool{info: core.Info{Weights: weights, Sizes: sizes}, all: elements}
	for k := 0; k < sh.batches; k++ {
		p.batches = append(p.batches, elements[k*sh.batch:(k+1)*sh.batch:(k+1)*sh.batch])
	}
	return p
}

// floyd appends k distinct values from [0, m) to dst in ascending
// order (Floyd's algorithm, then an insertion sort of the k new values).
func floyd(dst []setsystem.SetID, rng *rand.Rand, m, k int) []setsystem.SetID {
	start := len(dst)
	for j := m - k; j < m; j++ {
		t := setsystem.SetID(rng.Intn(j + 1))
		for _, s := range dst[start:] {
			if s == t {
				t = setsystem.SetID(j)
				break
			}
		}
		dst = append(dst, t)
	}
	picked := dst[start:]
	for i := 1; i < len(picked); i++ {
		for j := i; j > 0 && picked[j] < picked[j-1]; j-- {
			picked[j], picked[j-1] = picked[j-1], picked[j]
		}
	}
	return dst
}

// batch returns run batch k.
func (p *pool) batch(k int) []setsystem.Element { return p.batches[k%len(p.batches)] }
