package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/setsystem"
)

var small = shape{sets: 300, loadLo: 2, loadHi: 6, capacity: 2, zipf: 1.2, batch: 16, batches: 3}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	v, beyond, ok := tail(xs, 0.99)
	if !ok || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond (ok %v), want 990 with 10 beyond", v, beyond, ok)
	}
	if _, _, ok := tail(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it, want it refused")
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	a, b := newPool(small, 7), newPool(small, 7)
	if !reflect.DeepEqual(a.all, b.all) || !reflect.DeepEqual(a.info, b.info) {
		t.Fatal("two pools from seed 7 differ")
	}
	if c := newPool(small, 8); reflect.DeepEqual(a.all, c.all) {
		t.Fatal("seeds 7 and 8 gave the same elements")
	}
	for i, el := range a.all {
		if err := setsystem.CheckElement(el, small.sets); err != nil {
			t.Fatalf("element %d: %v", i, err)
		}
		if n := len(el.Members); n < small.loadLo || n > small.loadHi {
			t.Fatalf("element %d has load %d, want %d..%d", i, n, small.loadLo, small.loadHi)
		}
	}
	for k := 0; k < 7; k++ {
		if &a.batch(k)[0] != &a.batches[k%small.batches][0] {
			t.Fatalf("run batch %d is not pool batch %d", k, k%small.batches)
		}
	}
}

// The oracle's composed result must equal core.Run over the cyclic
// sequence written out in full.
func TestOracleMatchesRunOverCycledSequence(t *testing.T) {
	p := newPool(small, 3)
	for _, policy := range []string{"randpr", "randpr-weighted"} {
		o, err := newOracle(p, policy, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range []int{1, 3, 7} {
			var els []setsystem.Element
			for k := 0; k < nb; k++ {
				els = append(els, p.batch(k)...)
			}
			want, err := o.run(els)
			if err != nil {
				t.Fatal(err)
			}
			got, err := o.result(nb)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s, %d batches: composed result differs from core.Run", policy, nb)
			}
		}
	}
}

func TestTamperedVerdictIsDetected(t *testing.T) {
	p := newPool(small, 5)
	o, err := newOracle(p, "randpr", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	hashOf := func(k int, tamper bool) uint64 {
		var h verdictHash
		for i := range p.batch(k) {
			adm := o.admitted[(k%small.batches)*small.batch+i]
			if tamper && i == 3 {
				adm = adm[1:] // one admitted set reported as dropped
			}
			h.add(i, adm)
		}
		return uint64(h)
	}
	ph := &phase{ctl: &windowCtl{}, batch: small.batch}
	for k := 0; k < 5; k++ {
		ph.recs = append(ph.recs, batchRec{hash: hashOf(k, k == 4)})
	}
	if s := ph.stats(o); s.mismatched != 1 {
		t.Fatalf("%d mismatched batches, want 1", s.mismatched)
	}

	res, err := o.result(5)
	if err != nil {
		t.Fatal(err)
	}
	res.Assigned[0]++
	if want, _ := o.result(5); res.Equal(want) {
		t.Fatal("a drained result with one count changed still equals the oracle")
	}
}

// A server that stalls on its first request delays every batch due
// during the stall; the open loop must charge that wait to each of
// them, counting latency from the due time rather than the send time.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	ctl := startWindow(0, 400*time.Millisecond, 0, 0, nil, func() sample { return sample{} })
	ph := newPhase("test", nil, ctl, 1)
	openLoop(ph, 10*time.Millisecond, 1, 1000, func(int) (uint64, error) {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return 0, err
	})
	ph.finish()
	if len(ph.recs) < 20 {
		t.Fatalf("%d batches sent in a 400ms window at one per 10ms", len(ph.recs))
	}
	// Batch 5 was due 50ms in, but the one sender was stuck until 200ms.
	r := ph.recs[5]
	if r.failed {
		t.Fatal("batch 5 failed")
	}
	if lat := r.end - r.due; lat < stall-60*time.Millisecond {
		t.Fatalf("batch 5 latency from due time %v, want at least %v", lat, stall-60*time.Millisecond)
	}
	if svc := r.end - r.send; svc > 50*time.Millisecond {
		t.Fatalf("batch 5 service time %v: it should have been answered at once", svc)
	}
	o := &oracle{expect: []uint64{0}}
	s := ph.stats(o)
	if got, _ := quantile(s.latMs, 1); got < ms(stall-60*time.Millisecond) {
		t.Fatalf("worst sampled latency %vms, want the stall counted", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
	}
	if got := selfTimes(spans)[1]; got != 50 {
		t.Fatalf("self time %v, want 50ns (100 minus 10..50 and 90..100)", got)
	}
}

// The peak RSS reading is taken when the window's peakAt-th batch
// completes, and the window stays open past its length until then, so
// a slow host and a fast one read it over the same elements.
func TestPeakReadAtFixedBatchCount(t *testing.T) {
	const peakAt = 30
	var atRead atomic.Int64
	var ctl *windowCtl
	read := func() (int64, error) {
		atRead.Store(ctl.completed.Load())
		return 42, nil
	}
	ctl = startWindow(0, 20*time.Millisecond, 0, peakAt, read, func() sample { return sample{} })
	start := time.Now()
	for i := 0; i < 40; i++ {
		time.Sleep(2 * time.Millisecond)
		ctl.completed.Add(1)
	}
	<-ctl.done
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("window closed after %v, before its %d-th batch", d, peakAt)
	}
	if n := atRead.Load(); n < peakAt || n > peakAt+2 {
		t.Fatalf("peak RSS read after batch %d, want %d", n, peakAt)
	}
	if ctl.rssErr != nil || ctl.rss != 42 {
		t.Fatalf("reading %d, %v", ctl.rss, ctl.rssErr)
	}
}

// A calibration does work on every worker and reports positive speeds
// whose factors invert them against the reference.
func TestCalibrationMeasuresHostSpeed(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	h, err := c.measure(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !(h.wall > 0 && h.cpu > 0) {
		t.Fatalf("speeds %+v", h)
	}
	if got := h.wall * h.wallFactor(); math.Abs(got-refCalibWall) > 1e-6*refCalibWall {
		t.Fatalf("wall speed × factor = %v, want the reference %v", got, refCalibWall)
	}
	for i, w := range c.workers {
		if w.units == 0 || w.admits == 0 {
			t.Fatalf("worker %d did no work: %d elements, %d admissions", i, w.units, w.admits)
		}
	}
}
