package client

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/osp"
)

// Transport negotiation: IngestAuto prefers the pipelined stream
// transport (one long-lived TCP connection to the server's
// -stream-listen port) and falls back to binary HTTP — once, pinned per
// instance — when the target node has no stream listener, as an
// ospserve started without -stream-listen. A fleet coordinator can
// point the same client code at a mixed fleet, and every node settles
// onto the fastest transport it actually serves after at most one
// failed dial.

// Transport pinning outcomes for IngestAuto, reported by Transport.
const (
	transportUnresolved int32 = iota
	transportStream
	transportHTTP
)

// IngestAuto streams one batch like Ingest but delivers verdicts by
// callback and negotiates the transport: when the client has a stream
// address (WithStreamAddr), the first call dials it and pins a
// long-lived verdict stream for this instance; if the dial or handshake
// fails — the node has no stream listener, or something else answers
// the port — the batch goes over HTTP instead and the instance stays
// pinned to HTTP, never re-dialing per batch. A server that speaks the
// stream protocol but *refuses* the instance (an Error frame, surfaced
// as *APIError) is authoritative: no fallback, the error is returned.
// Without a stream address every call is one HTTP request in the
// client's codec.
//
// fn (nil allowed: verdicts are discarded) runs once per element, in
// batch order, with the parent sets the element was admitted to; the
// admitted slice is reused scratch, valid only during the callback.
// Concurrent callers serialize on the pinned stream, which is a single
// in-order connection; HTTP calls run concurrently. After a terminal
// stream error the connection is closed and the next call re-dials.
// Call Close when done to release a pinned stream gracefully.
//
// With WithRetry configured, a terminal stream error drops the pinned
// connection and the retry re-dials it — the reconnect path a node
// failover rides through. Callbacks are buffered per attempt and fire
// only after an attempt succeeds, so a mid-stream reconnect never
// delivers a verdict twice and never delivers them out of batch order.
func (in *Instance) IngestAuto(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if fn == nil {
		fn = func(int, []osp.SetID) {} // verdicts wanted for their side effect only
	}
	return in.ingest(ctx, els, true, fn)
}

// ingestStream is one attempt over the pinned stream, dialing it on
// first use. It reports sent == false when the node turned out not to
// speak the stream protocol: the instance is then pinned to HTTP and the
// caller sends the batch there.
func (in *Instance) ingestStream(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) (sent bool, err error) {
	in.tmu.Lock()
	defer in.tmu.Unlock()
	if in.pinned == nil {
		if in.transport.Load() == transportHTTP {
			return false, nil // another caller fell back while this one waited
		}
		st, err := in.OpenStream(ctx)
		if err != nil {
			var apiErr *APIError
			if in.transport.Load() == transportUnresolved && !errors.As(err, &apiErr) {
				// The node does not speak the stream protocol on that
				// address (no listener, or a different service): one
				// failed dial per instance, not one per batch.
				in.transport.Store(transportHTTP)
				return false, nil
			}
			return true, err
		}
		in.pinned = st
		in.transport.Store(transportStream)
	}
	if err := in.pinned.Send(els); err != nil {
		return true, in.dropPinned(err)
	}
	if err := in.pinned.Recv(fn); err != nil {
		return true, in.dropPinned(err)
	}
	return true, nil
}

// dropPinned tears down the pinned stream after a terminal error; the
// transport stays pinned to stream, so the next IngestAuto re-dials.
func (in *Instance) dropPinned(err error) error {
	in.pinned.Close() //nolint:errcheck // the stream is already broken
	in.pinned = nil
	return err
}

// StreamConnElements reports, per striped stream connection, how many
// elements IngestAuto's pinned stream has sent down it — the
// observable stripe balance for loadgen reporting. Nil when no stream
// is pinned (HTTP transport, or before the first IngestAuto).
func (in *Instance) StreamConnElements() []uint64 {
	in.tmu.Lock()
	defer in.tmu.Unlock()
	if in.pinned == nil {
		return nil
	}
	return in.pinned.ConnElements()
}

// Transport reports IngestAuto's pinned transport for this instance:
// "stream" or "http" once the first call settles it, "auto" before.
func (in *Instance) Transport() string {
	switch in.transport.Load() {
	case transportStream:
		return "stream"
	case transportHTTP:
		return "http"
	default:
		return "auto"
	}
}

// Close releases the instance's pinned stream, if IngestAuto opened
// one, with a clean half-close handshake (every pipelined batch is
// answered before the server confirms). The instance handle itself
// stays usable — the next IngestAuto re-dials. Safe to call when no
// stream is pinned.
func (in *Instance) Close() error {
	in.tmu.Lock()
	defer in.tmu.Unlock()
	if in.pinned == nil {
		return nil
	}
	st := in.pinned
	in.pinned = nil
	err := st.CloseSend()
	for err == nil {
		err = st.Recv(func(int, []osp.SetID) {})
	}
	if cerr := st.Close(); cerr != nil && err == io.EOF {
		err = cerr
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("client: close stream: %w", err)
	}
	return nil
}
