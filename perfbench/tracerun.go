package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// traceRun is the traced run: an untraced phase as the overhead
// baseline, the same phase traced on a fresh instance, short probes of
// the other load loops against the same servers, and the in-process layer
// measurements. Each per-layer metric comes from the traced phase when
// the workload's own loop calls that layer, and from the probes
// otherwise, so every workload reports every metric.
func (b *bench) traceRun(dir string) (*report, error) {
	t, _, err := b.setup("setup")
	defer b.teardown(t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := b.tr
	b.tr = nil
	base, err := b.phase(t, b.w.mode, "untraced", warmup, b.window/reps, minSamples, 0)
	b.tr = tr
	if err != nil {
		return nil, err
	}
	if err := b.register(t, b.w.mode, "main"); err != nil {
		return nil, err
	}
	main, err := b.phase(t, b.w.mode, "main", rewarm, b.window/reps, minSamples, 0)
	if err != nil {
		return nil, err
	}

	probes := map[string]*phaseResult{}
	for _, m := range []string{modeStream, modeHTTP, modeCluster} {
		if m == b.w.mode {
			continue
		}
		pt := &target{servers: t.servers[:1]}
		if m == modeCluster {
			pt.servers = t.servers
		}
		name := "probe-" + m
		err := b.register(pt, m, name)
		if err == nil {
			probes[m], err = b.phase(pt, m, name, 0, probeWindow, 0, 0)
		}
		if pt.co != nil {
			pt.co.Close()
		}
		if err != nil {
			return nil, err
		}
	}

	root, start := tr.id(), time.Now()
	wc, err := measureWire(b.oracle, tr, root)
	if err != nil {
		return nil, err
	}
	ec, err := measureEngine(b.oracle, tr, root)
	if err != nil {
		return nil, err
	}
	tr.record(root, 0, "layers", "layers", start, time.Now())

	spans := tr.snapshot()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	all := []*phaseResult{base, main}
	for _, m := range []string{modeStream, modeHTTP, modeCluster} {
		if p := probes[m]; p != nil {
			all = append(all, p)
		}
	}
	rep := newReport(all...)
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d in %s", len(spans), path))
	for _, row := range layerTable(spans) {
		rep.notes = append(rep.notes, fmt.Sprintf("layer %-30s count=%-7d total_ms=%-12.3f self_ms=%-12.3f mean_self_us=%.3f",
			row.name, row.count, ms(row.total), ms(row.self), float64(row.self.Microseconds())/float64(row.count)))
	}

	// own returns the phase that drove mode: the traced phase when it is
	// the workload's own, else the probe.
	own := func(mode string) (*phaseResult, string) {
		if mode == b.w.mode {
			return main, "main"
		}
		return probes[mode], "probe-" + mode
	}
	spanVals := func(mode, name string, unit time.Duration) ([]float64, string) {
		_, src := own(mode)
		return durations(spans, src, name, unit), src
	}
	spanMean := func(metric, unit string, mode, name string, u time.Duration) {
		v, src := spanVals(mode, name, u)
		rep.add(metric, mean(v), unit, fmt.Sprintf("calls=%d source=%s", len(v), src))
	}
	spanMedian := func(metric, unit string, mode, name string, u time.Duration) {
		v, src := spanVals(mode, name, u)
		rep.add(metric, median(v), unit, fmt.Sprintf("calls=%d source=%s", len(v), src))
	}

	spanMean("client.send_us", "us", modeStream, "client.Stream.Send", time.Microsecond)
	spanMean("client.recv_wait_us", "us", modeStream, "client.Stream.Recv", time.Microsecond)
	spanMedian("client.ingest_ms_p50", "ms", modeHTTP, "client.Instance.Ingest", time.Millisecond)
	regMode := b.w.mode
	if regMode == modeCluster {
		regMode = modeStream
	}
	spanMean("client.register_ms", "ms", regMode, "client.Client.Register", time.Millisecond)
	spanMean("client.drain_ms", "ms", regMode, "client.Instance.Drain", time.Millisecond)

	perEl := "workload batches x" + fmt.Sprint(layerPasses)
	rep.add("wire.encode_ns_per_el", wc.encode, "ns", perEl)
	rep.add("wire.decode_ns_per_el", wc.decode, "ns", perEl)
	rep.add("wire.verdict_pack_ns_per_el", wc.pack, "ns", perEl)
	rep.add("wire.verdict_decode_ns_per_el", wc.unpack, "ns", perEl)
	rep.add("wire.batch_bytes_per_el", wc.batchBytes, "B", perEl)
	rep.add("wire.verdict_bytes_per_el", wc.verdictBytes, "B", perEl)

	sp, src := own(modeStream)
	rep.add("stream.frames_per_mel", sp.d.serve["osp_stream_batches_total"]/float64(sp.winEls)*1e6, "count",
		fmt.Sprintf("elements=%d source=%s", sp.winEls, src))

	// Serve stages come from the /metrics delta of the phase that drove
	// the arm the stage times: the HTTP arm for ingest_decode and request
	// (every HTTP request, scrapes included), the stream arm for
	// stream_decode, and the traced phase for the engine's stages.
	for _, st := range []struct{ metric, stage, mode string }{
		{"serve.ingest_decode_us", "ingest_decode", modeHTTP},
		{"serve.stream_decode_us", "stream_decode", modeStream},
		{"serve.queue_wait_us", "queue_wait", b.w.mode},
		{"serve.decide_us", "decide", b.w.mode},
		{"serve.request_us", "request", modeHTTP},
	} {
		p, src := own(st.mode)
		v, n := p.d.serve.stageMeanUs(st.stage)
		rep.add(st.metric, v, "us", fmt.Sprintf("observations=%.0f source=%s", n, src))
	}
	non2xx := 0.0
	for _, p := range all[1:] {
		non2xx += p.d.serve.sumPrefix("osp_http_requests_total", `code="4`) +
			p.d.serve.sumPrefix("osp_http_requests_total", `code="5`)
	}
	rep.add("serve.http_non2xx", non2xx, "count", "traced phase and probes")
	// A stream-path server allocates nothing per element and so reads a
	// zero pause on a healthy run: printed, but left out of the result
	// line as a time that would read the same on every run.
	rep.note("serve.gc_pause_ms", main.d.serve["osp_go_gc_pause_seconds_total"]*1e3, "ms",
		fmt.Sprintf("window=%.3fs", main.winDur.Seconds()))
	rep.add("serve.gc_cycles_per_mel", main.d.serve["osp_go_gc_cycles_total"]/float64(main.winEls)*1e6, "count",
		fmt.Sprintf("elements=%d", main.winEls))

	rep.add("engine.ns_per_el", ec.nsPerEl, "ns", perEl)
	rep.add("engine.allocs_per_el", ec.allocsPerEl, "count", perEl)
	rep.add("engine.queue_wait_us", ec.queueWaitUs, "us", perEl)

	poolEls := float64(len(b.pool.all))
	rep.add("core.decide_ns_per_el", float64(b.oracle.decideTime.Nanoseconds())/poolEls, "ns", fmt.Sprintf("elements=%.0f", poolEls))
	rep.add("core.setup_ms", ms(b.oracle.setupTime), "ms", fmt.Sprintf("sets=%d", len(b.pool.info.Weights)))
	rep.add("core.serial_ns_per_el", float64(b.oracle.serialTime.Nanoseconds())/poolEls, "ns", fmt.Sprintf("elements=%.0f", poolEls))

	cp, src := own(modeCluster)
	spanMedian("cluster.ingest_ms_p50", "ms", modeCluster, "cluster.Instance.Ingest", time.Millisecond)
	fwdN := cp.d.cluster["osp_cluster_forward_duration_seconds_count"]
	rep.add("cluster.forward_ms", cp.d.cluster["osp_cluster_forward_duration_seconds_sum"]/fwdN*1e3, "ms",
		fmt.Sprintf("forwards=%.0f source=%s", fwdN, src))
	spanMean("cluster.drain_ms", "ms", modeCluster, "cluster.Instance.Drain", time.Millisecond)
	var nodeEls []float64
	for k, v := range cp.d.cluster {
		if strings.HasPrefix(k, "osp_cluster_node_elements_total{") {
			nodeEls = append(nodeEls, v)
		}
	}
	top := 0.0
	for _, v := range nodeEls {
		top = math.Max(top, v)
	}
	rep.add("cluster.node_skew", top/mean(nodeEls), "ratio", fmt.Sprintf("nodes=%d source=%s", len(nodeEls), src))
	rep.add("cluster.resent", cp.d.cluster["osp_cluster_resent_elements_total"], "count", "source="+src)
	rep.add("cluster.lost", cp.d.cluster["osp_cluster_lost_elements_total"], "count", "source="+src)
	issued := len(cp.latMs) * b.w.shape.batch
	rep.add("cluster.journal_bytes_per_el", float64(cp.d.heap)/float64(issued), "B",
		fmt.Sprintf("elements=%d source=%s", issued, src))

	hp, src := own(modeHTTP)
	late, _ := quantile(append([]float64(nil), hp.lateMs...), 0.99)
	rep.add("gen.late_p99_ms", late, "ms", fmt.Sprintf("samples=%d source=%s", len(hp.lateMs), src))
	rep.add("gen.cpu_ns_per_el", float64(main.d.genCPU.Nanoseconds())/float64(main.winEls), "ns",
		fmt.Sprintf("elements=%d", main.winEls))
	rep.add("host.steal_frac", stealFrac(b.host0, hostCPU()), "ratio", "whole run")
	cpuPerEl := func(p *phaseResult) float64 {
		return float64((p.d.genCPU + p.d.srvCPU).Nanoseconds()) / float64(p.winEls)
	}
	rep.add("trace.overhead_frac", cpuPerEl(main)/cpuPerEl(base)-1, "ratio",
		fmt.Sprintf("cpu_ns_per_el traced=%.1f untraced=%.1f", cpuPerEl(main), cpuPerEl(base)))
	return rep, nil
}
