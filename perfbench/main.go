// Command perfbench is the repository's end-to-end benchmark. It starts
// real ospserve processes, drives them from this one process through
// the public osp/client and internal/cluster APIs, checks every run
// against the serial oracle, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a traced run). The last line
// of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds ospserve and this command from
// the checkout first; README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/osp"
	"repro/osp/client"
)

// Run-wide constants. Every workload uses the same ones, so runs on
// two commits differ only in the program under test.
const (
	streamDepth = 8       // stream-bulk: batches in flight
	httpRate    = 200_000 // http-open: offered elements per second
	httpConns   = 2       // http-open: senders, one connection each
	setups      = 21      // set-ups per untraced run; setup_s is their median
	reps        = 10      // timed phases per untraced run
	kept        = 5       // the phases with the least steal; metrics are their medians
	warmup      = time.Second
	rewarm      = 250 * time.Millisecond // warm-up of a phase on warm servers
	probeWindow = 300 * time.Millisecond
	minSamples  = 1000    // batches in the window, so that p99 has 10 beyond it
	peakEls     = 1 << 21 // closed loops: peak RSS is read when this many elements of the window are answered
	runDeadline = 170 * time.Second
)

const (
	modeStream  = "stream"
	modeHTTP    = "http"
	modeCluster = "cluster"
)

// workload is one traffic mix. The program receives only the elements
// generated from the shape and the seed.
type workload struct {
	name   string
	shape  shape
	policy string
	mode   string
	nodes  int
}

// bulk is the shape stream-bulk and cluster-fanout share: m small
// enough that the priority table stays in cache.
var bulk = shape{sets: 8192, loadLo: 4, loadHi: 12, capacity: 4, batch: 4096, batches: 64}

var workloads = []workload{
	// The throughput path: per-request overhead is amortised, so wire,
	// stream framing, serve decode, engine and core do the work.
	{name: "stream-bulk", shape: bulk, policy: "randpr", mode: modeStream, nodes: 1},
	// The HTTP handler's path, open loop at a fixed rate: m is large, so
	// decide misses the cache and registration posts megabytes.
	{name: "http-open", shape: shape{sets: 262144, loadLo: 4, loadHi: 8, capacity: 2, zipf: 1.2, batch: 256, batches: 512},
		policy: "randpr-weighted", mode: modeHTTP, nodes: 1},
	// The cluster layer on stream-bulk's elements: split, forward,
	// merge and the journal do work here and nowhere else.
	{name: "cluster-fanout", shape: bulk, policy: "randpr", mode: modeCluster, nodes: 2},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "length of the timed window")
		traced  = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		bin     = fs.String("ospserve", "", "ospserve binary built from the checkout")
		out     = fs.String("out", ".bench_build", "directory for the spans file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *bin == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -ospserve, -seconds >= 1 and -workload, one of stream-bulk, http-open, cluster-fanout\n")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{
		ctx:    ctx,
		w:      *w,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		fleet:  &fleet{bin: *bin},
		// At most two connections per server: the HTTP client's pool
		// plus, on the stream workloads, one stream connection.
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	if *traced == 1 {
		b.tr = newTracer()
		b.fleet.flags = []string{"-stream-timings"}
	}
	// Every exit path stops the servers: the deferred call, a signal,
	// and the watchdog that keeps a hung run within its time limit.
	defer b.fleet.stopAll()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		b.fleet.stopAll()
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run deadline exceeded")
		b.fleet.stopAll()
		os.Exit(3)
	})
	defer watchdog.Stop()

	b.host0 = hostCPU()
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	b.pool = newPool(w.shape, *seed)
	var err error
	if b.oracle, err = newOracle(b.pool, w.policy, uint64(*seed), b.tr); err != nil {
		return fail(err)
	}
	var rep *report
	if b.tr == nil {
		rep, err = b.endToEnd()
	} else {
		rep, err = b.traceRun(filepath.Join(*out, "trace"))
	}
	if err != nil {
		return fail(err)
	}
	hostInfo := fingerprint(".")
	hostInfo.Steal = stealFrac(b.host0, hostCPU())
	hj, _ := json.Marshal(hostInfo)
	fmt.Fprintf(stdout, "host: %s\n", hj)
	return rep.print(stdout)
}

// bench is one run's state.
type bench struct {
	ctx    context.Context
	w      workload
	seed   int64
	window time.Duration
	fleet  *fleet
	hc     *http.Client
	tr     *tracer // nil in untraced runs
	host0  cpuTimes

	pool   *pool
	oracle *oracle
}

// target is the servers a phase drives and the instance registered on
// them.
type target struct {
	servers []*server
	inst    *client.Instance // stream and http modes
	st      *client.Stream   // stream mode
	co      *cluster.Coordinator
	cin     *cluster.Instance // cluster mode
}

// setup starts the workload's servers and registers its instance: the
// interval setup_s measures, from the first exec to an instance
// registered with its stream open.
func (b *bench) setup(trace string) (*target, time.Duration, error) {
	start := time.Now()
	t := &target{}
	for i := 0; i < b.w.nodes; i++ {
		s, err := b.fleet.start(b.ctx, b.hc, fmt.Sprintf("node-%d", i))
		if err != nil {
			return t, 0, err
		}
		t.servers = append(t.servers, s)
	}
	err := b.register(t, b.w.mode, trace)
	return t, time.Since(start), err
}

// register opens a fresh instance of the pool's instance on t's
// servers for a phase in the given mode.
func (b *bench) register(t *target, mode, trace string) error {
	if mode == modeCluster {
		if t.co == nil {
			nodes := make([]cluster.Node, len(t.servers))
			for i, s := range t.servers {
				nodes[i] = cluster.Node{BaseURL: s.httpURL, StreamAddr: s.streamAddr}
			}
			co, err := cluster.New(cluster.Config{Nodes: nodes, Journal: true, HTTPClient: b.hc})
			if err != nil {
				return err
			}
			t.co = co
		}
		start := time.Now()
		in, err := t.co.Register(b.ctx, cluster.Spec{Info: b.pool.info, Seed: uint64(b.seed),
			Engine: osp.EngineConfig{Policy: b.w.policy}, FanOut: true})
		b.tr.record(0, 0, trace, "cluster.Coordinator.Register", start, time.Now())
		t.cin = in
		return err
	}
	s := t.servers[0]
	c, err := client.New(s.httpURL, client.WithHTTPClient(b.hc), client.WithStreamAddr(s.streamAddr),
		client.WithCodec(client.CodecBinary))
	if err != nil {
		return err
	}
	start := time.Now()
	in, err := c.Register(b.ctx, client.Spec{Info: b.pool.info, Seed: uint64(b.seed), Engine: osp.EngineConfig{Policy: b.w.policy}})
	b.tr.record(0, 0, trace, "client.Client.Register", start, time.Now())
	if err != nil {
		return err
	}
	t.inst = in
	if mode == modeStream {
		start = time.Now()
		st, err := in.OpenStream(b.ctx)
		b.tr.record(0, 0, trace, "client.Instance.OpenStream", start, time.Now())
		if err != nil {
			return err
		}
		t.st = st
	}
	return nil
}

func (b *bench) teardown(t *target) {
	if t.st != nil {
		t.st.Close()
	}
	if t.co != nil {
		t.co.Close()
	}
	for _, s := range t.servers {
		b.fleet.stop(s)
	}
}

// snapper returns the function that reads a phase's window sample.
func (b *bench) snapper(t *target) func() sample {
	return func() sample {
		s := sample{genCPU: selfCPU(), serve: series{}, heap: liveHeap(), host: hostCPU()}
		var errs []error
		rss, err := resetPeakRSS("self")
		s.rss += rss
		errs = append(errs, err)
		for _, srv := range t.servers {
			pid := srv.cmd.Process.Pid
			c, err := procCPU(pid)
			s.srvCPU += c
			errs = append(errs, err)
			rss, err := resetPeakRSS(fmt.Sprint(pid))
			s.rss += rss
			errs = append(errs, err)
			text, err := srv.c.Metrics(b.ctx)
			s.serve.add(parseSeries(text))
			errs = append(errs, err)
		}
		if t.co != nil {
			var buf bytes.Buffer
			t.co.WriteMetrics(&buf)
			s.cluster = parseSeries(buf.String())
		}
		s.err = errors.Join(errs...)
		return s
	}
}

// peakReader returns the function that reads the summed peak RSS of
// this process and t's servers since the window opened.
func (b *bench) peakReader(t *target) func() (int64, error) {
	return func() (int64, error) {
		sum, err := resetPeakRSS("self")
		errs := []error{err}
		for _, srv := range t.servers {
			rss, err := resetPeakRSS(fmt.Sprint(srv.cmd.Process.Pid))
			sum += rss
			errs = append(errs, err)
		}
		return sum, errors.Join(errs...)
	}
}

func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// phaseResult is a finished phase: its measurements and whether the
// drained result equals the serial oracle's.
type phaseResult struct {
	phaseStats
	resultOK bool
	name     string
}

// phase runs one load loop against t's registered instance for a warm-up
// and a window, then drains the instance and checks it. With peakAt > 0
// the window's peak RSS is read when its peakAt-th batch is answered.
func (b *bench) phase(t *target, mode, name string, warm, window time.Duration, minN, peakAt int) (*phaseResult, error) {
	ctl := startWindow(warm, window, minN, peakAt, b.peakReader(t), b.snapper(t))
	p := newPhase(name, b.tr, ctl, b.w.shape.batch)
	var err error
	switch mode {
	case modeStream:
		err = streamLoop(p, t.st, b.pool, streamDepth)
		t.st = nil
	case modeHTTP:
		interval := time.Duration(float64(b.w.shape.batch) / httpRate * float64(time.Second))
		maxBatches := int((warm+4*window+time.Second)/interval) + 1
		openLoop(p, interval, httpConns, maxBatches, func(k int) (uint64, error) {
			v, err := t.inst.Ingest(b.ctx, b.pool.batch(k))
			var h verdictHash
			for i := range v {
				h.add(i, v[i].Admitted)
			}
			return uint64(h), err
		})
	case modeCluster:
		clusterLoop(b.ctx, p, t.cin, b.pool)
	}
	p.finish()
	if err == nil {
		err = errors.Join(ctl.s0.err, ctl.s1.err, ctl.rssErr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s phase: %w", name, err)
	}
	r := &phaseResult{phaseStats: p.stats(b.oracle), name: name}
	if b.tr != nil {
		// The heap the phase's window left live: the window opened on a
		// collected heap, so after one more collection the growth is
		// what the window's elements retain (the cluster journal).
		runtime.GC()
		r.d.heap = liveHeap() - ctl.s0.heap
	}

	start := time.Now()
	var res *osp.Result
	if mode == modeCluster {
		res, err = t.cin.Drain(b.ctx)
		b.tr.record(0, p.root, name, "cluster.Instance.Drain", start, time.Now())
	} else {
		res, err = t.inst.Drain(b.ctx)
		b.tr.record(0, p.root, name, "client.Instance.Drain", start, time.Now())
	}
	if err != nil {
		return nil, fmt.Errorf("%s phase: drain: %w", name, err)
	}
	want, err := b.oracle.result(len(p.recs))
	if err != nil {
		return nil, err
	}
	r.resultOK = res.Equal(want)
	return r, nil
}

// endToEnd is the untraced run: setups set-ups, then reps timed
// phases on the last one's servers, each on a freshly registered
// instance and each seconds/reps long. The host is calibrated before
// the set-ups and around every phase, and each phase's times are scaled
// by the host speed its two calibrations measured (see calib.go). A
// vCPU the hypervisor takes away stalls the whole pipeline, which
// scaling cannot undo, so every metric is the median over the kept
// phases with the least steal in their windows. A phase is also short
// enough that the cluster journal, which grows with the elements sent,
// stays within a few hundred megabytes.
func (b *bench) endToEnd() (*report, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	calibrate := func() (hostSpeed, error) { return cal.measure(calibSlice) }
	before, err := calibrate()
	if err != nil {
		return nil, err
	}

	var setupS []float64
	var t *target
	for i := 0; i < setups; i++ {
		tg, d, err := b.setup("setup")
		if err != nil {
			b.teardown(tg)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			b.teardown(tg)
		} else {
			t = tg
		}
	}
	defer b.teardown(t)
	prev, err := calibrate()
	if err != nil {
		return nil, err
	}
	setupHost := between(before, prev)

	peakAt := 0
	if b.w.mode != modeHTTP {
		peakAt = peakEls / b.w.shape.batch
	}
	// One phase's figures: scaled, unscaled, and what they rest on.
	type figures struct {
		tput, p50, p99, cpu, rss        float64
		rawTput, rawP50, rawP99, rawCPU float64
		wf, cf, steal                   float64
		nLat, nBeyond                   int
	}
	var rs []*phaseResult
	var ph []figures
	for i := 0; i < reps; i++ {
		warm := warmup
		if i > 0 {
			warm = rewarm
			if err := b.register(t, b.w.mode, "setup"); err != nil {
				return nil, err
			}
		}
		r, err := b.phase(t, b.w.mode, fmt.Sprintf("rep%d", i), warm, b.window/reps, minSamples, peakAt)
		if err != nil {
			return nil, err
		}
		next, err := calibrate()
		if err != nil {
			return nil, err
		}
		h := between(prev, next)
		prev = next
		rs = append(rs, r)
		v99, beyond, ok := tail(append([]float64(nil), r.latMs...), 0.99)
		if !ok {
			return nil, fmt.Errorf("phase %d: %d latency samples, too few for a p99 with %d beyond", i, len(r.latMs), minBeyond)
		}
		f := figures{
			rawTput: r.throughput(),
			rawP50:  median(append([]float64(nil), r.latMs...)),
			rawP99:  v99,
			rawCPU:  float64(r.d.srvCPU.Nanoseconds()) / float64(r.winEls),
			rss:     float64(r.d.rss) / (1 << 20),
			wf:      h.wallFactor(),
			cf:      h.cpuFactor(),
			steal:   r.steal,
			nLat:    len(r.latMs),
			nBeyond: beyond,
		}
		f.tput, f.p50, f.p99, f.cpu = f.rawTput*f.wf, f.rawP50/f.wf, f.rawP99/f.wf, f.rawCPU/f.cf
		if b.w.mode == modeHTTP {
			// The open loop offers a fixed rate: its throughput is that
			// rate unless a backlog builds, whatever the host's speed.
			f.tput = f.rawTput
		}
		ph = append(ph, f)
	}

	keep := append([]figures(nil), ph...)
	sort.SliceStable(keep, func(i, j int) bool { return keep[i].steal < keep[j].steal })
	keep = keep[:kept]
	med := func(get func(figures) float64) float64 {
		xs := make([]float64, len(keep))
		for i, f := range keep {
			xs[i] = get(f)
		}
		return median(xs)
	}
	list := func(format string, get func(figures) float64) string {
		var b strings.Builder
		for i, f := range ph {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, format, get(f))
		}
		return "[" + b.String() + "]"
	}
	rep := newReport(rs...)
	of := fmt.Sprintf("median of the %d of %d phases with the least steal", kept, reps)
	rep.add("throughput_eps", med(func(f figures) float64 { return f.tput }), "1/s",
		fmt.Sprintf("%s, each %.3gs; host-scaled, unscaled %.6g", of, (b.window/reps).Seconds(), med(func(f figures) float64 { return f.rawTput })))
	rep.add("verdict_p50_ms", med(func(f figures) float64 { return f.p50 }), "ms",
		fmt.Sprintf("%s; host-scaled, unscaled %.6g; samples per phase %s", of, med(func(f figures) float64 { return f.rawP50 }), list("%.0f", func(f figures) float64 { return float64(f.nLat) })))
	rep.add("verdict_p99_ms", med(func(f figures) float64 { return f.p99 }), "ms",
		fmt.Sprintf("%s; host-scaled, unscaled %.6g; samples beyond per phase %s", of, med(func(f figures) float64 { return f.rawP99 }), list("%.0f", func(f figures) float64 { return float64(f.nBeyond) })))
	rep.add("server_cpu_ns_per_el", med(func(f figures) float64 { return f.cpu }), "ns",
		fmt.Sprintf("%s; host-scaled, unscaled %.6g; servers=%d", of, med(func(f figures) float64 { return f.rawCPU }), len(t.servers)))
	peakDetail := "read when the window closes"
	if peakAt > 0 {
		peakDetail = fmt.Sprintf("read at element %d of the window", peakAt*b.w.shape.batch)
	}
	rep.add("peak_rss_mb", med(func(f figures) float64 { return f.rss }), "MB", fmt.Sprintf("%s; processes=%d; %s", of, len(t.servers)+1, peakDetail))
	rep.add("setup_s", median(setupS)/setupHost.wallFactor(), "s", fmt.Sprintf("median of %d set-ups; host-scaled, unscaled %.6g", len(setupS), median(setupS)))
	rep.note("error_rate", rep.errorRate(), "1", fmt.Sprintf("failed=%d attempted=%d", rep.failed, rep.attempted))
	rep.note("host.steal_frac", med(func(f figures) float64 { return f.steal }), "ratio", "kept phases; per phase "+list("%.3f", func(f figures) float64 { return f.steal }))
	rep.note("host.wall_factor", med(func(f figures) float64 { return f.wf }), "1", "kept phases; reference/calibrated wall speed per phase "+list("%.3f", func(f figures) float64 { return f.wf }))
	rep.note("host.cpu_factor", med(func(f figures) float64 { return f.cf }), "1", "kept phases; reference/calibrated CPU speed per phase "+list("%.3f", func(f figures) float64 { return f.cf }))
	return rep, nil
}

// report collects one run's outcome and metrics.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(phases ...*phaseResult) *report {
	rep := &report{correct: true, metrics: map[string]metric{}}
	for _, r := range phases {
		rep.attempted += r.batches
		rep.failed += r.failed + r.mismatched
		if !r.resultOK || r.failed+r.mismatched > 0 {
			rep.correct = false
			rep.notes = append(rep.notes, fmt.Sprintf("%s: drained result equals oracle: %v; failed batches %d; verdict mismatches %d",
				r.name, r.resultOK, r.failed, r.mismatched))
		}
	}
	return rep
}

func (r *report) errorRate() float64 { return float64(r.failed) / float64(max(r.attempted, 1)) }

// add records a metric for the final JSON line and prints it with the
// detail (sample counts) it rests on.
func (r *report) add(name string, v float64, unit, detail string) {
	r.metrics[name] = metric{v, unit}
	r.note(name, v, unit, detail)
}

// note prints a metric that is not part of the final JSON line.
func (r *report) note(name string, v float64, unit, detail string) {
	r.notes = append(r.notes, fmt.Sprintf("metric %-28s %16.6g %-6s %s", name, v, unit, detail))
}

func (r *report) print(w io.Writer) int {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !r.correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs differ from the serial oracle")
		return 1
	}
	return 0
}

// fail reports a run that could not finish. It prints no result line.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}
