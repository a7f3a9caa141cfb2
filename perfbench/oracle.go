package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/setsystem"
)

// oracle is the serial policy's view of a pool: the verdicts of every
// pool element, a hash of each pool batch's verdicts, and core.Run's
// Assigned counts over one pass of the pool.
//
// A run sends the pool cyclically, so its element sequence is q whole
// passes followed by the first r batches. The policy contract makes
// Decide a pure function of (element, frozen state), and core.Run sums
// one Assigned count per decision, so core.Run over that sequence
// assigns exactly q·(one pass) + (first r batches). The oracle composes
// the two core.Run results instead of materialising the sequence, which
// core.Run would otherwise copy whole.
type oracle struct {
	pool     *pool
	pol      core.Policy
	seed     uint64
	admitted [][]setsystem.SetID // serial verdict of every pool element
	expect   []uint64            // verdict hash of every pool batch
	assigned []int32             // core.Run over one pass of the pool

	setupTime  time.Duration // Policy.Setup
	decideTime time.Duration // PolicyState.Decide over the pool
	serialTime time.Duration // core.Run over the pool
}

func newOracle(p *pool, policy string, seed uint64, tr *tracer) (*oracle, error) {
	pol, err := core.LookupPolicy(policy)
	if err != nil {
		return nil, err
	}
	o := &oracle{pool: p, pol: pol, seed: seed}

	start := time.Now()
	st, err := pol.Setup(p.info, seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: policy setup: %w", err)
	}
	o.setupTime = time.Since(start)
	tr.record(0, 0, "oracle", "core.Policy.Setup", start, start.Add(o.setupTime))

	o.admitted = make([][]setsystem.SetID, len(p.all))
	arena := make([]setsystem.SetID, 0, len(p.all)*p.all[0].Capacity)
	var buf []setsystem.SetID
	for i, el := range p.all {
		buf = st.Decide(el.Members, el.Capacity, buf)
		lo := len(arena)
		arena = append(arena, buf...)
		o.admitted[i] = arena[lo:len(arena):len(arena)]
	}
	// Time a second, warm pass that does nothing but decide.
	start = time.Now()
	for _, el := range p.all {
		buf = st.Decide(el.Members, el.Capacity, buf)
	}
	o.decideTime = time.Since(start)
	tr.record(0, 0, "oracle", "core.PolicyState.Decide", start, start.Add(o.decideTime))

	n := len(p.batches[0])
	o.expect = make([]uint64, len(p.batches))
	for k := range o.expect {
		var h verdictHash
		for i, adm := range o.admitted[k*n : (k+1)*n] {
			h.add(i, adm)
		}
		o.expect[k] = uint64(h)
	}

	start = time.Now()
	res, err := o.run(p.all)
	if err != nil {
		return nil, err
	}
	o.serialTime = time.Since(start)
	tr.record(0, 0, "oracle", "core.Run", start, start.Add(o.serialTime))
	o.assigned = res.Assigned
	return o, nil
}

// run is core.Run over els with the pool's up-front information.
func (o *oracle) run(els []setsystem.Element) (*core.Result, error) {
	inst := &setsystem.Instance{Weights: o.pool.info.Weights, Sizes: o.pool.info.Sizes, Elements: els}
	res, err := core.Run(inst, &core.PolicyAlgorithm{Policy: o.pol, Seed: o.seed}, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: serial run: %w", err)
	}
	return res, nil
}

// result returns the serial oracle's Result over the first nb batches
// of the cyclic sequence. Completion and benefit are recomputed from
// the composed counts in ascending set order, exactly as core.Run does.
func (o *oracle) result(nb int) (*core.Result, error) {
	q, r := nb/len(o.pool.batches), nb%len(o.pool.batches)
	assigned := make([]int32, len(o.assigned))
	for i, c := range o.assigned {
		assigned[i] = int32(q) * c
	}
	if r > 0 {
		n := len(o.pool.batches[0])
		prefix, err := o.run(o.pool.all[:r*n])
		if err != nil {
			return nil, err
		}
		for i, c := range prefix.Assigned {
			assigned[i] += c
		}
	}
	res := &core.Result{Assigned: assigned}
	for i, w := range o.pool.info.Weights {
		if int(assigned[i]) == o.pool.info.Sizes[i] {
			res.Completed = append(res.Completed, setsystem.SetID(i))
			res.Benefit += w
		}
	}
	return res, nil
}

// verdictHash folds one batch's verdicts into 64 bits. Each element
// contributes a mix of its batch index and admitted sets, and the
// contributions are summed, so the hash does not depend on the order
// the callbacks arrive in (the cluster coordinator calls back per node).
type verdictHash uint64

func (h *verdictHash) add(i int, admitted []setsystem.SetID) {
	x := uint64(i)*0x9e3779b97f4a7c15 + uint64(len(admitted))
	for _, s := range admitted {
		x = mix64(x ^ uint64(uint32(s)))
	}
	*h += verdictHash(mix64(x))
}

// mix64 is the SplitMix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
