package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/wire"
	"repro/osp"
)

// ingest is the one client ingest core behind Ingest and IngestAuto: it
// runs attempts under the client's retry policy and delivers fn once per
// element, in batch order, with the parent sets the element was admitted
// to. auto selects IngestAuto's transport choice (the pinned stream when
// a stream address is set); otherwise every attempt is one HTTP request.
// With WithRetry configured, attempts buffer their callbacks and fn
// fires only after one succeeds — each element exactly once, no matter
// how many retries the batch rode through.
func (in *Instance) ingest(ctx context.Context, els []osp.Element, auto bool, fn func(i int, admitted []osp.SetID)) error {
	if in.c.retry == nil {
		return in.ingestOnce(ctx, els, auto, fn)
	}
	buf := verdictBufPool.Get().(*verdictBuf)
	defer verdictBufPool.Put(buf)
	err := in.c.withRetry(ctx, func(ctx context.Context) error {
		buf.reset()
		return in.ingestOnce(ctx, els, auto, buf.collect)
	})
	if err != nil {
		return err
	}
	buf.flush(fn)
	return nil
}

// ingestOnce is one attempt: over the pinned stream when auto allows it,
// else one HTTP request in the client's codec.
func (in *Instance) ingestOnce(ctx context.Context, els []osp.Element, auto bool, fn func(i int, admitted []osp.SetID)) error {
	if auto {
		if in.c.streamAddr == "" {
			in.transport.Store(transportHTTP)
		} else if in.transport.Load() != transportHTTP {
			if sent, err := in.ingestStream(ctx, els, fn); sent {
				return err
			}
		}
	}
	if in.c.codec == CodecJSON {
		return in.postJSON(ctx, els, fn)
	}
	return in.postBinary(ctx, els, fn)
}

// postJSON is one ingest request in the JSON wire shapes.
func (in *Instance) postJSON(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	req := ingestRequest{Elements: make([]wireElement, len(els))}
	for i, el := range els {
		req.Elements[i] = wireElement{Members: el.Members, Capacity: el.Capacity}
	}
	var resp ingestResponse
	if err := in.c.doJSON(ctx, "POST", "/v1/instances/"+in.id+"/elements", req, &resp); err != nil {
		return err
	}
	if len(resp.Verdicts) != len(els) {
		return fmt.Errorf("client: %d verdicts for %d elements", len(resp.Verdicts), len(els))
	}
	for i, v := range resp.Verdicts {
		fn(i, v.Admitted)
	}
	return nil
}

// httpScratch is the pooled working set of a binary ingest request:
// request frame, response frame and the per-element admitted scratch, so
// nothing is allocated per element.
type httpScratch struct {
	frame    []byte
	resp     []byte
	admitted []osp.SetID
}

var httpScratchPool = sync.Pool{New: func() any { return new(httpScratch) }}

// postBinary is one ingest request in the binary codec: the batch goes
// out as one flat wire frame, the reply comes back as one bitmask per
// element over the members this client just sent.
func (in *Instance) postBinary(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	sc := httpScratchPool.Get().(*httpScratch)
	defer httpScratchPool.Put(sc)
	sc.frame = wire.AppendElements(sc.frame[:0], els)

	req, err := http.NewRequestWithContext(ctx, "POST", in.c.base+"/v1/instances/"+in.id+"/elements", bytes.NewReader(sc.frame))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeBatch)
	resp, err := in.c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: POST elements (binary): %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeVerdicts {
		return fmt.Errorf("client: binary ingest answered with Content-Type %q, want %q", ct, wire.ContentTypeVerdicts)
	}
	sc.resp, err = readInto(resp.Body, sc.resp[:0])
	if err != nil {
		return fmt.Errorf("client: read verdicts frame: %w", err)
	}
	return decodeVerdicts(sc.resp, els, &sc.admitted, fn)
}

// decodeVerdicts walks one verdicts frame in place against the batch it
// answers, calling fn per element with its admitted sets decoded into
// *admitted — reused scratch, valid only during the callback.
func decodeVerdicts(raw []byte, els []osp.Element, admitted *[]osp.SetID, fn func(i int, admitted []osp.SetID)) error {
	payload, count, err := wire.DecodeVerdicts(raw)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if count != len(els) {
		return fmt.Errorf("client: verdicts frame counts %d elements, batch sent %d", count, len(els))
	}
	for i, el := range els {
		var mask []byte
		mask, payload, err = wire.MaskAt(payload, len(el.Members))
		if err != nil {
			return fmt.Errorf("client: element %d: %w", i, err)
		}
		*admitted, err = wire.AppendAdmitted((*admitted)[:0], mask, el.Members)
		if err != nil {
			return fmt.Errorf("client: element %d: %w", i, err)
		}
		fn(i, *admitted)
	}
	if len(payload) != 0 {
		// The server's mask boundaries do not line up with the elements
		// sent (version skew, proxy mangling): the verdicts are garbage.
		return fmt.Errorf("client: %d verdict mask bytes left over after the last element", len(payload))
	}
	return nil
}

// readInto reads r to EOF appending onto buf, reusing its storage.
func readInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
