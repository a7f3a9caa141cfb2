package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/wire"
)

// The ingest core. Every arm — JSON over HTTP, binary over HTTP
// (Content-Type application/x-osp-batch) and the raw-TCP stream
// (stream.go) — takes the same steps:
//
//	batch cap     the element count the request declares is checked
//	              against MaxBatch before anything is filled, while the
//	              request is still just its own bytes
//	fill          an engine.Batch, in the engine's flat SoA layout: JSON
//	              copies the decoded elements, binary HTTP decodes the
//	              body with wire.DecodeBatch into a borrowed batch, the
//	              stream aliases its frame in place with wire.AliasBatch
//	              (the copying decoder is its fallback)
//	ingest        Batch.Validate against the instance's universe — the
//	              one per-member scan, which makes batches atomic — then
//	              a lane submit under the read side of Instance.rw
//	verdicts      the deciding shard appends one verdict mask per element
//	              and hands the frame to Batch.Done: each element is
//	              decided exactly once, by the shard that counts it
//
// The HTTP arms wait for the frame on a channel in their pooled scratch
// after the submit has released the fence; binary writes the frame as
// it is, JSON renders Admitted/Dropped from it and the request's own
// members. Steady-state binary ingest allocates nothing per element.

// ingestScratch is the pooled per-request working set of the HTTP
// ingest arms. done is bound to masks once, when the scratch is made,
// so handing it to a batch as Batch.Done allocates nothing.
type ingestScratch struct {
	body  []byte      // request frame (binary arm)
	resp  []byte      // verdicts frame, filled by the deciding shard
	masks chan []byte // Batch.Done delivers the frame here
	done  func(seq uint32, masks []byte)
}

var scratchPool = sync.Pool{New: func() any {
	sc := &ingestScratch{masks: make(chan []byte, 1)}
	sc.done = func(_ uint32, masks []byte) { sc.masks <- masks }
	return sc
}}

// checkBatchLen is the batch cap every arm enforces on the declared
// element count BEFORE filling: the fill lands in engine free-list
// buffers (or a stream slot) that live as long as the instance, so an
// over-limit batch must be refused before it can grow them.
func (s *Server) checkBatchLen(n int) error {
	if n > s.cfg.MaxBatch {
		return fmt.Errorf("ingest: batch of %d exceeds limit %d", n, s.cfg.MaxBatch)
	}
	return nil
}

// ingest is the shared tail of every arm: validate the filled batch,
// observe the arm's decode stage (decode may be nil), write the verdicts
// frame header onto b.Masks and submit on lane under the read side of
// rw. The caller has set b.Masks and b.Done; the shard completes the
// frame and calls Done unless ingest returns an error. Ownership of b
// passes to the engine whatever the outcome.
func (in *Instance) ingest(lane *engine.Lane, b *engine.Batch, decode *obs.Histogram, start time.Time) error {
	err := b.Validate(in.info.NumSets())
	if err == nil && b.Len() == 0 {
		// The engine takes an empty batch as a no-op and would never
		// call Done.
		err = errors.New("empty batch")
	}
	if err != nil {
		in.eng.ReturnBatch(b)
		return err
	}
	if decode != nil {
		decode.Observe(time.Since(start))
	}
	b.Masks = wire.AppendVerdictsHeader(b.Masks[:0], b.Len())
	in.rw.RLock()
	defer in.rw.RUnlock()
	return lane.SubmitBatch(b)
}

// ingestHTTP runs an HTTP arm's filled batch through the ingest core and
// returns the verdicts frame the deciding shard built, or writes the
// error response and returns false.
func (s *Server) ingestHTTP(w http.ResponseWriter, in *Instance, b *engine.Batch, sc *ingestScratch, start time.Time) ([]byte, bool) {
	b.Masks, b.Done = sc.resp, sc.done
	if err := in.ingest(in.newLane(), b, &s.obs.ingestDecode, start); err != nil {
		if errors.Is(err, engine.ErrDrained) {
			// Distinguish a client-drained instance (terminal, 409) from
			// a drain forced by graceful shutdown racing this request
			// (retryable elsewhere, 503 as documented).
			if s.pool.Closed() {
				writeError(w, http.StatusServiceUnavailable, "%v", ErrPoolClosed)
			} else {
				writeError(w, http.StatusConflict, "ingest: instance %s is already drained", in.ID())
			}
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return nil, false
	}
	sc.resp = <-sc.masks
	return sc.resp, true
}

// handleIngest streams one batch: POST /v1/instances/{id}/elements.
// Batches are atomic: every element is validated before any is submitted,
// so a malformed batch changes nothing. On success the response carries
// the immediate admit/drop verdict of every element.
//
// The wire codec is chosen per request by Content-Type:
// application/x-osp-batch takes the binary arm (answered with
// application/x-osp-verdicts); any other content type decodes as the
// JSON shapes of api.go.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instance(w, r)
	if !ok {
		return
	}
	if s.pool.Closed() {
		writeError(w, http.StatusServiceUnavailable, "%v", ErrPoolClosed)
		return
	}
	if isBinaryBatch(r) {
		s.handleIngestBinary(w, r, in)
		return
	}
	start := time.Now()
	var req IngestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := s.checkBatchLen(len(req.Elements)); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := in.eng.BorrowBatch()
	if err := fillElements(b, req.Elements); err != nil {
		in.eng.ReturnBatch(b)
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	frame, ok := s.ingestHTTP(w, in, b, sc, start)
	if !ok {
		return
	}
	verdicts, err := renderVerdicts(frame, req.Elements)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "ingest: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Verdicts: verdicts, Ingested: len(verdicts)})
}

// fillElements copies decoded JSON elements into a borrowed batch.
// Capacities are range-checked before they are narrowed into the int32
// Caps field: a capacity of 2^31 (or one below 1) is rejected here, not
// wrapped into some other, possibly valid, value. Everything else is
// left to Batch.Validate.
func fillElements(b *engine.Batch, els []WireElement) error {
	b.Offs = append(b.Offs, 0)
	for i, el := range els {
		if el.Capacity < 1 || el.Capacity > math.MaxInt32 {
			return fmt.Errorf("element %d: %w: capacity %d", i, setsystem.ErrBadCapacity, el.Capacity)
		}
		if len(el.Members) > math.MaxInt32-len(b.Members) {
			return fmt.Errorf("element %d: batch exceeds %d members", i, math.MaxInt32)
		}
		b.Members = append(b.Members, el.Members...)
		b.Offs = append(b.Offs, int32(len(b.Members)))
		b.Caps = append(b.Caps, int32(el.Capacity))
	}
	return nil
}

// renderVerdicts expands a verdicts frame into the JSON arm's rows,
// reading each element's mask against the request's own members — the
// order the shard computed it in. The rows share two backing arrays.
func renderVerdicts(frame []byte, els []WireElement) ([]Verdict, error) {
	payload, count, err := wire.DecodeVerdicts(frame)
	if err != nil {
		return nil, err
	}
	if count != len(els) {
		return nil, fmt.Errorf("verdicts frame counts %d elements, batch has %d", count, len(els))
	}
	total := 0
	for _, el := range els {
		total += len(el.Members)
	}
	admitted := make([]setsystem.SetID, 0, total)
	dropped := make([]setsystem.SetID, 0, total)
	verdicts := make([]Verdict, len(els))
	for i, el := range els {
		var mask []byte
		if mask, payload, err = wire.MaskAt(payload, len(el.Members)); err != nil {
			return nil, err
		}
		a, d := len(admitted), len(dropped)
		for j, set := range el.Members {
			if wire.MaskBit(mask, j) {
				admitted = append(admitted, set)
			} else {
				dropped = append(dropped, set)
			}
		}
		verdicts[i] = Verdict{Admitted: admitted[a:len(admitted):len(admitted)], Dropped: dropped[d:len(dropped):len(dropped)]}
	}
	return verdicts, nil
}

// isBinaryBatch reports whether the request negotiates the binary batch
// codec via Content-Type (parameters after ';' are ignored).
func isBinaryBatch(r *http.Request) bool {
	return mediaType(r.Header.Get("Content-Type")) == wire.ContentTypeBatch
}

// mediaType strips parameters and whitespace off a Content-Type value.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// readBody reads the whole request body into buf (reusing its storage),
// bounded by the configured body limit. A limit overrun is reported as
// *http.MaxBytesError, exactly like the JSON path's decoder.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n > 0 && n <= limit && int64(cap(buf)) < n {
		// Known length above the warm buffer: grow once, up front.
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleIngestBinary is the binary-codec arm of POST
// /v1/instances/{id}/elements. Semantics mirror the JSON arm exactly —
// atomic batches, identical status codes, the same verdicts — only the
// wire representation and the allocation profile differ: the body lands
// in a pooled buffer, decodes straight into a borrowed engine batch, and
// the shard's verdicts frame goes back as it is.
func (s *Server) handleIngestBinary(w http.ResponseWriter, r *http.Request, in *Instance) {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)

	start := time.Now()
	body, err := readBody(w, r, s.cfg.MaxBodyBytes, sc.body[:0])
	sc.body = body
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "ingest: read body: %v", err)
		return
	}
	if c, ok := wire.PeekBatchCount(body); ok {
		if err := s.checkBatchLen(c); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	b := in.eng.BorrowBatch()
	b.Members, b.Offs, b.Caps, err = wire.DecodeBatch(body, b.Members[:0], b.Offs[:0], b.Caps[:0])
	if err != nil {
		in.eng.ReturnBatch(b)
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	frame, ok := s.ingestHTTP(w, in, b, sc, start)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", wire.ContentTypeVerdicts)
	w.WriteHeader(http.StatusOK)
	w.Write(frame) //nolint:errcheck // client gone mid-write is not actionable
}
