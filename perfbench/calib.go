package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"
)

// Host calibration. The benchmark runs on a few vCPUs of a shared host,
// and how fast those vCPUs are changes from minute to minute with the
// other tenants' load: on the same code, a run's throughput and CPU per
// element have differed by a factor of 1.6 between quiet and busy
// stretches. The calibration is a fixed piece of work of the program's
// kind, written here and not taken from the program under test, so it
// runs the same on every commit: each worker encodes a batch of
// elements, sends it over its own loopback TCP connection, reads it
// back, decodes it and admits each element to the calibCap
// highest-priority sets that still have room. A run calibrates right
// before and after every timed phase, and scales the phase's metrics by
// how far the host was from the reference speed while the phase ran.
// The factors are printed with every result, next to the unscaled
// metrics.
const (
	calibSlice   = 300 * time.Millisecond
	calibBatch   = 1024 // elements per write
	calibSets    = 8192
	calibCap     = 4
	calibElems   = 16384 // the calibration's fixed element sequence
	calibSeed    = 20101 // fixed: the calibration never depends on --seed
	calibWorkers = 2     // one per vCPU of the reference host
)

// Reference speeds: the calibration's elements per wall-clock second and per
// CPU second on a quiet 2-vCPU KVM guest (Intel Xeon, Sapphire Rapids,
// steal < 0.1%). A scaled metric equals its unscaled value on a host
// that runs the calibration at these speeds.
const (
	refCalibWall = 11.0e6
	refCalibCPU  = 5.55e6
)

// hostSpeed is what one calibration measured, in its elements per
// wall-clock second and per CPU second of this process.
type hostSpeed struct{ wall, cpu float64 }

// wallFactor is how much slower than the reference the host ran: a
// wall-clock duration measured on it, divided by the factor, is what
// the reference host would have taken.
func (h hostSpeed) wallFactor() float64 { return refCalibWall / h.wall }

// cpuFactor is the same for CPU time.
func (h hostSpeed) cpuFactor() float64 { return refCalibCPU / h.cpu }

// between is the speed a phase ran at: the mean of the calibrations that
// bracket it.
func between(a, b hostSpeed) hostSpeed { return hostSpeed{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2} }

// calibrator owns the calibration's connections and data for one run.
type calibrator struct {
	workers []*calibWorker
}

type calibWorker struct {
	a, b   net.Conn
	els    [][]uint16 // member set IDs of each element
	prio   []uint32   // fixed per-set priorities
	room   []uint8    // elements each set still admits
	wbuf   []byte
	rbuf   []byte
	units  int64
	next   int
	admits int64 // kept so the admission loop is not optimised away
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	rng := rand.New(rand.NewSource(calibSeed))
	els := make([][]uint16, calibElems)
	for i := range els {
		k := 4 + rng.Intn(9)
		e := make([]uint16, 0, k)
		for len(e) < k {
			s := uint16(rng.Intn(calibSets))
			dup := false
			for _, x := range e {
				dup = dup || x == s
			}
			if !dup {
				e = append(e, s)
			}
		}
		els[i] = e
	}
	prio := make([]uint32, calibSets)
	for i := range prio {
		prio[i] = rng.Uint32()
	}
	p := &calibrator{}
	for i := 0; i < calibWorkers; i++ {
		w := &calibWorker{els: els, prio: prio, room: make([]uint8, calibSets),
			wbuf: make([]byte, 0, calibBatch*40), rbuf: make([]byte, calibBatch*40)}
		w.reset()
		p.workers = append(p.workers, w)
		acc := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				c = nil
			}
			acc <- c
		}()
		w.a, err = net.Dial("tcp", ln.Addr().String())
		w.b = <-acc
		if err != nil || w.b == nil {
			p.close()
			return nil, errors.Join(err, errors.New("host calibration: loopback accept failed"))
		}
	}
	return p, nil
}

func (p *calibrator) close() {
	for _, w := range p.workers {
		if w.a != nil {
			w.a.Close()
		}
		if w.b != nil {
			w.b.Close()
		}
	}
}

// measure runs every worker for d at once and returns the host speed.
func (p *calibrator) measure(d time.Duration) (hostSpeed, error) {
	runtime.GC()
	var wg sync.WaitGroup
	errs := make([]error, len(p.workers))
	cpu0 := selfCPU()
	start := time.Now()
	stop := start.Add(d)
	for i, w := range p.workers {
		w.units = 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if err := w.round(); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := selfCPU() - cpu0
	if err := errors.Join(errs...); err != nil {
		return hostSpeed{}, fmt.Errorf("host calibration: %w", err)
	}
	var units int64
	for _, w := range p.workers {
		units += w.units
	}
	if cpu <= 0 {
		return hostSpeed{}, errors.New("host calibration: no CPU time recorded")
	}
	return hostSpeed{wall: float64(units) / wall.Seconds(), cpu: float64(units) / cpu.Seconds()}, nil
}

func (w *calibWorker) reset() {
	for i := range w.room {
		w.room[i] = calibCap
	}
}

// round sends one batch through the worker's connection and admits
// its elements.
func (w *calibWorker) round() error {
	buf := w.wbuf[:0]
	for i := 0; i < calibBatch; i++ {
		e := w.els[(w.next+i)%len(w.els)]
		buf = binary.AppendUvarint(buf, uint64(len(e)))
		for _, s := range e {
			buf = binary.AppendUvarint(buf, uint64(s))
		}
	}
	w.next = (w.next + calibBatch) % len(w.els)
	if w.next == 0 {
		w.reset()
	}
	if _, err := w.a.Write(buf); err != nil {
		return err
	}
	in := w.rbuf[:len(buf)]
	if _, err := io.ReadFull(w.b, in); err != nil {
		return err
	}
	var members [16]uint16
	for off := 0; off < len(in); {
		k, n := binary.Uvarint(in[off:])
		off += n
		for j := range int(k) {
			s, n := binary.Uvarint(in[off:])
			off += n
			members[j] = uint16(s)
		}
		w.admits += int64(w.admit(members[:k]))
	}
	w.units += calibBatch
	return nil
}

// admit gives the element to the calibCap highest-priority members that
// still have room, and returns how many it was given to.
func (w *calibWorker) admit(ms []uint16) int {
	given := 0
	for given < calibCap {
		best, bestP := -1, uint32(0)
		for j, s := range ms {
			if w.room[s] > 0 && (best < 0 || w.prio[s] > bestP) {
				best, bestP = j, w.prio[s]
			}
		}
		if best < 0 {
			break
		}
		w.room[ms[best]]--
		ms[best], ms = ms[len(ms)-1], ms[:len(ms)-1]
		given++
	}
	return given
}
