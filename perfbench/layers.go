package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/wire"
)

// layerPasses is how many times the in-process layer measurements walk
// the pool.
const layerPasses = 3

// wireLayer times the wire codec's public functions on the workload's
// own batches: the client's batch encode, the server's batch decode,
// the server's verdict pack and the client's verdict decode. It
// returns ns per element for each, and the frame sizes per element.
type wireCosts struct {
	encode, decode, pack, unpack float64 // ns per element
	batchBytes, verdictBytes     float64 // bytes per element
}

func measureWire(o *oracle, tr *tracer, root int64) (wireCosts, error) {
	var (
		c                         wireCosts
		tEnc, tDec, tPack, tUnp   time.Duration
		frame, buf, verdicts      []byte
		members                   []setsystem.SetID
		offs, caps                []int32
		adm                       []setsystem.SetID
		els, frameBytes, vrdBytes int
	)
	n := len(o.pool.batches[0])
	for pass := 0; pass < layerPasses; pass++ {
		for k, batch := range o.pool.batches {
			trace := traceID("layers", k)
			t := time.Now()
			frame = wire.AppendElements(frame[:0], batch)
			t1 := time.Now()
			tr.record(0, root, trace, "wire.AppendElements", t, t1)
			tEnc += t1.Sub(t)

			if cap(buf) < len(frame)+3 {
				buf = make([]byte, len(frame)+3)
			}
			shift := wire.BatchAliasShift(buf)
			data := buf[shift : shift+len(frame)]
			copy(data, frame)
			t = time.Now()
			var ok bool
			var err error
			_, offs, _, ok, err = wire.AliasBatch(data, offs[:0])
			if err == nil && !ok {
				members, offs, caps, err = wire.DecodeBatch(data, members[:0], offs[:0], caps[:0])
			}
			t1 = time.Now()
			if err != nil {
				return c, fmt.Errorf("wire: decode: %w", err)
			}
			tr.record(0, root, trace, "wire.AliasBatch", t, t1)
			tDec += t1.Sub(t)

			admitted := o.admitted[k*n : (k+1)*n]
			t = time.Now()
			verdicts = wire.AppendVerdictsHeader(verdicts[:0], len(batch))
			for i, el := range batch {
				verdicts = wire.AppendVerdictMask(verdicts, el.Members, admitted[i])
			}
			t1 = time.Now()
			tr.record(0, root, trace, "wire.AppendVerdictMask", t, t1)
			tPack += t1.Sub(t)

			t = time.Now()
			payload, count, err := wire.DecodeVerdicts(verdicts)
			for i := 0; err == nil && i < count; i++ {
				var mask []byte
				if mask, payload, err = wire.MaskAt(payload, len(batch[i].Members)); err == nil {
					adm, err = wire.AppendAdmitted(adm[:0], mask, batch[i].Members)
				}
			}
			t1 = time.Now()
			if err != nil {
				return c, fmt.Errorf("wire: verdict decode: %w", err)
			}
			tr.record(0, root, trace, "wire.DecodeVerdicts", t, t1)
			tUnp += t1.Sub(t)

			els += len(batch)
			frameBytes += len(frame)
			vrdBytes += len(verdicts)
		}
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(els) }
	c = wireCosts{encode: per(tEnc), decode: per(tDec), pack: per(tPack), unpack: per(tUnp),
		batchBytes: float64(frameBytes) / float64(els), verdictBytes: float64(vrdBytes) / float64(els)}
	return c, nil
}

// engineCosts is the in-process engine replay's result.
type engineCosts struct {
	nsPerEl, allocsPerEl, queueWaitUs float64
}

// measureEngine replays the pool's batches through the engine's batch
// path with telemetry histograms attached, and checks the drained
// result against the oracle.
func measureEngine(o *oracle, tr *tracer, root int64) (engineCosts, error) {
	var qw, dec obs.Histogram
	eng, err := engine.NewWithPolicy(o.pool.info, o.pol, o.seed, engine.Config{
		Telemetry: &obs.EngineTelemetry{QueueWait: &qw, Decide: &dec},
	})
	if err != nil {
		return engineCosts{}, fmt.Errorf("engine: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	nb := layerPasses * len(o.pool.batches)
	for k := 0; k < nb; k++ {
		t := time.Now()
		b := eng.BorrowBatch()
		b.Offs = append(b.Offs, 0)
		for _, el := range o.pool.batch(k) {
			b.Members = append(b.Members, el.Members...)
			b.Offs = append(b.Offs, int32(len(b.Members)))
			b.Caps = append(b.Caps, int32(el.Capacity))
		}
		err := eng.SubmitBatch(b)
		tr.record(0, root, traceID("layers", k), "engine.SubmitBatch", t, time.Now())
		if err != nil {
			eng.Drain() //nolint:errcheck // the submit error is the one to report
			return engineCosts{}, fmt.Errorf("engine: submit: %w", err)
		}
	}
	t := time.Now()
	res, err := eng.Drain()
	end := time.Now()
	tr.record(0, root, "layers", "engine.Drain", t, end)
	runtime.ReadMemStats(&after)
	if err != nil {
		return engineCosts{}, fmt.Errorf("engine: drain: %w", err)
	}
	want, err := o.result(nb)
	if err != nil {
		return engineCosts{}, err
	}
	if !res.Equal(want) {
		return engineCosts{}, fmt.Errorf("engine: replayed result differs from the serial oracle")
	}
	els := float64(nb * len(o.pool.batches[0]))
	q := qw.Snapshot()
	c := engineCosts{
		nsPerEl:     float64(end.Sub(start).Nanoseconds()) / els,
		allocsPerEl: float64(after.Mallocs-before.Mallocs) / els,
	}
	if q.Count > 0 {
		c.queueWaitUs = q.SumSecs / float64(q.Count) * 1e6
	}
	return c, nil
}
