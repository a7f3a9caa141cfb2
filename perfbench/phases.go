package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/osp/client"
)

// sample is the state read at the opening and the closing of a timed
// window; the metrics come from the differences.
type sample struct {
	srvCPU  time.Duration // summed over the phase's servers
	genCPU  time.Duration // this process
	serve   series        // summed /metrics of the phase's servers
	cluster series        // the coordinator's exposition, cluster phases only
	heap    int64         // this process's live heap as of the last GC
	rss     int64         // peak RSS of every process since the previous sample
	host    cpuTimes
	err     error // a reading that failed
}

// windowCtl runs a phase's clock: a warm-up, then a timed window of at
// least the configured length that stays open until minSamples batches
// have completed in it (up to four times its length). With peakAt > 0
// it also reads the peak RSS of every process when the peakAt-th batch
// of the window completes, and stays open until then, so the reading
// covers the same elements however fast the host runs.
type windowCtl struct {
	warmup, window time.Duration
	minSamples     int
	snap           func() sample
	peakAt         int
	peak           func() (int64, error)

	completed atomic.Int64 // batches completed since the phase began
	done      chan struct{}

	mu     sync.Mutex
	t0, t1 time.Time // window opening and closing; zero until they happen
	s0, s1 sample
	rss    int64 // the peakAt reading
	rssErr error
}

func startWindow(warmup, window time.Duration, minSamples, peakAt int, peak func() (int64, error), snap func() sample) *windowCtl {
	c := &windowCtl{warmup: warmup, window: window, minSamples: minSamples, snap: snap,
		peakAt: peakAt, peak: peak, done: make(chan struct{})}
	go c.run()
	return c
}

func (c *windowCtl) run() {
	defer close(c.done)
	time.Sleep(c.warmup)
	// Start every window from a collected, returned heap, so that the
	// generator's memory peak and its collections inside the window do
	// not depend on what earlier phases left behind.
	debug.FreeOSMemory()
	s0 := c.snap()
	c.mu.Lock()
	c.t0, c.s0 = time.Now(), s0
	c.mu.Unlock()
	base := c.completed.Load()
	limit := c.t0.Add(4 * c.window)
	if c.peakAt > 0 {
		for int(c.completed.Load()-base) < c.peakAt && time.Now().Before(limit) {
			time.Sleep(time.Millisecond)
		}
		if int(c.completed.Load()-base) < c.peakAt {
			c.rssErr = fmt.Errorf("window closed before its %d-th batch, when peak RSS is read", c.peakAt)
		} else {
			c.rss, c.rssErr = c.peak()
		}
	}
	time.Sleep(time.Until(c.t0.Add(c.window)))
	for int(c.completed.Load()-base) < c.minSamples && time.Now().Before(limit) {
		time.Sleep(20 * time.Millisecond)
	}
	s1 := c.snap()
	c.mu.Lock()
	c.t1, c.s1 = time.Now(), s1
	c.mu.Unlock()
}

// sendable reports whether a batch due at due belongs to the phase: it
// does unless the window closed at or before due. Deciding under the
// lock makes the sent batches exactly those due before the closing, a
// prefix of the cyclic sequence, even with several senders.
func (c *windowCtl) sendable(due time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t1.IsZero() || due.Before(c.t1)
}

// batchRec is one batch's fate. Times are since the phase began; due
// equals send except in the open loop.
type batchRec struct {
	due, send, end time.Duration
	hash           uint64
	failed         bool
}

// phase is one timed run of a load loop against one registered instance.
type phase struct {
	name  string // trace prefix: "main", "probe-stream", ...
	tr    *tracer
	ctl   *windowCtl
	begin time.Time
	root  int64 // span ID of the phase
	batch int   // elements per batch

	recs []batchRec
}

func newPhase(name string, tr *tracer, ctl *windowCtl, batch int) *phase {
	return &phase{name: name, tr: tr, ctl: ctl, begin: time.Now(), root: tr.id(), batch: batch}
}

func (p *phase) since(t time.Time) time.Duration { return t.Sub(p.begin) }

// finish waits for the window to close and records the phase's span.
func (p *phase) finish() {
	<-p.ctl.done
	p.tr.record(p.root, 0, p.name, p.name, p.begin, time.Now())
}

// streamLoop is the closed loop of stream-bulk: depth batches in flight
// on one verdict stream, the next sent as soon as the oldest is
// answered.
func streamLoop(p *phase, st *client.Stream, pl *pool, depth int) error {
	type flight struct {
		start time.Time
		id    int64
	}
	ring := make([]flight, depth)
	var acc verdictHash
	cb := acc.add
	sent := 0
	for recvd := 0; ; recvd++ {
		for sent-recvd < depth && p.ctl.sendable(time.Now()) {
			id := p.tr.id()
			start := time.Now()
			err := st.Send(pl.batch(sent))
			p.tr.record(0, id, traceID(p.name, sent), "client.Stream.Send", start, time.Now())
			if err != nil {
				return err
			}
			ring[sent%depth] = flight{start, id}
			sent++
		}
		if recvd == sent {
			break
		}
		f := ring[recvd%depth]
		acc = 0
		t := time.Now()
		err := st.Recv(cb)
		end := time.Now()
		p.tr.record(0, f.id, traceID(p.name, recvd), "client.Stream.Recv", t, end)
		p.tr.record(f.id, p.root, traceID(p.name, recvd), "batch", f.start, end)
		if err != nil {
			return err
		}
		p.recs = append(p.recs, batchRec{due: p.since(f.start), send: p.since(f.start), end: p.since(end), hash: uint64(acc)})
		p.ctl.completed.Add(1)
	}
	if err := st.CloseSend(); err != nil {
		return err
	}
	for {
		if err := st.Recv(cb); err != nil {
			st.Close()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// openLoop is the open loop of http-open: batch k is due at
// begin + k·interval whatever happened to earlier batches, and workers
// senders take batches in order. A sender that falls behind sends at
// once, and the batch's latency still counts from its due time, so a
// stall is charged to every batch it delays. send returns the batch's
// verdict hash.
func openLoop(p *phase, interval time.Duration, workers, maxBatches int, send func(k int) (uint64, error)) {
	p.recs = make([]batchRec, maxBatches)
	var next atomic.Int64
	var sent atomic.Int64 // batches sent: all k < sent were taken
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= maxBatches {
					return
				}
				due := p.begin.Add(time.Duration(k) * interval)
				time.Sleep(time.Until(due))
				if !p.ctl.sendable(due) {
					return
				}
				id := p.tr.id()
				start := time.Now()
				h, err := send(k)
				end := time.Now()
				trace := traceID(p.name, k)
				p.tr.record(0, id, trace, "gen.late", due, start)
				p.tr.record(0, id, trace, "client.Instance.Ingest", start, end)
				p.tr.record(id, p.root, trace, "batch", due, end)
				p.recs[k] = batchRec{due: p.since(due), send: p.since(start), end: p.since(end), hash: h, failed: err != nil}
				p.ctl.completed.Add(1)
				for {
					n := sent.Load()
					if int64(k+1) <= n || sent.CompareAndSwap(n, int64(k+1)) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	p.recs = p.recs[:sent.Load()]
}

// clusterLoop is the loop of cluster-fanout: one synchronous
// coordinator Ingest at a time.
func clusterLoop(ctx context.Context, p *phase, in *cluster.Instance, pl *pool) {
	var acc verdictHash
	cb := acc.add
	for k := 0; p.ctl.sendable(time.Now()); k++ {
		acc = 0
		id := p.tr.id()
		start := time.Now()
		err := in.Ingest(ctx, pl.batch(k), cb)
		end := time.Now()
		p.tr.record(0, id, traceID(p.name, k), "cluster.Instance.Ingest", start, end)
		p.tr.record(id, p.root, traceID(p.name, k), "batch", start, end)
		p.recs = append(p.recs, batchRec{due: p.since(start), send: p.since(start), end: p.since(end), hash: uint64(acc), failed: err != nil})
		p.ctl.completed.Add(1)
	}
}

// phaseStats is what a phase measured in its window.
type phaseStats struct {
	batches    int // batches sent, warm-up included
	failed     int // batches that errored
	mismatched int // batches whose verdicts differ from the oracle's
	latMs      []float64
	lateMs     []float64 // send time minus due time (zero in closed loops)
	winEls     int       // elements whose verdicts arrived in the window
	winDur     time.Duration
	steal      float64 // the host's steal share over the window
	d          sample  // s1 − s0
}

// stats classifies the phase's batches against its window and the
// oracle. The latency samples are the batches issued in the window:
// due in it (the open loop) or sent in it (the closed loops, where due
// is the send time). Throughput counts the elements whose verdicts
// arrived in it.
func (p *phase) stats(o *oracle) phaseStats {
	c := p.ctl
	t0, t1 := p.since(c.t0), p.since(c.t1)
	s := phaseStats{batches: len(p.recs), winDur: t1 - t0, steal: stealFrac(c.s0.host, c.s1.host)}
	for k, r := range p.recs {
		if r.failed {
			s.failed++
			continue
		}
		if r.hash != o.expect[k%len(o.expect)] {
			s.mismatched++
		}
		if r.end >= t0 && r.end < t1 {
			s.winEls += p.batch
		}
		if r.due >= t0 && r.due < t1 {
			s.latMs = append(s.latMs, ms(r.end-r.due))
			s.lateMs = append(s.lateMs, ms(r.send-r.due))
		}
	}
	s.d = sample{
		srvCPU:  c.s1.srvCPU - c.s0.srvCPU,
		genCPU:  c.s1.genCPU - c.s0.genCPU,
		serve:   c.s1.serve.sub(c.s0.serve),
		cluster: c.s1.cluster.sub(c.s0.cluster),
		rss:     c.s1.rss,
	}
	if c.peakAt > 0 {
		s.d.rss = c.rss
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// throughput is elements per second of the window.
func (s phaseStats) throughput() float64 {
	if s.winDur <= 0 {
		return math.NaN()
	}
	return float64(s.winEls) / s.winDur.Seconds()
}
