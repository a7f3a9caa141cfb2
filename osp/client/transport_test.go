package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/osp"
	"repro/osp/client"
)

// These tests pin the IngestAuto transport-negotiation contract: a node
// without a stream listener costs exactly one failed dial, the instance
// falls back to binary HTTP and stays pinned there, and both arms
// produce verdicts bit-for-bit equal to the serial oracle.

// countingProxy listens on its own port and forwards accepted
// connections to dst, counting accepts — a stand-in for "the node's
// stream port" that lets a test observe dial attempts. When dst is "",
// accepted connections are closed immediately (a listener that is not a
// stream server: the handshake dies before an Ack frame).
func countingProxy(t *testing.T, dst string) (addr string, accepts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts = new(atomic.Int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			if dst == "" {
				conn.Close()
				continue
			}
			up, err := net.Dial("tcp", dst)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { pipe(conn, up) }()
		}
	}()
	return ln.Addr().String(), accepts
}

func pipe(a, b net.Conn) {
	done := make(chan struct{}, 2)
	cp := func(dst, src net.Conn) {
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		done <- struct{}{}
	}
	go cp(a, b)
	go cp(b, a)
	<-done
	a.Close()
	b.Close()
}

// ingestAuto drives a whole instance through IngestAuto in fixed-size
// batches, checking callback order, and returns the per-element admitted
// sets flattened for comparison.
func ingestAuto(t *testing.T, h *client.Instance, inst *osp.Instance, batch int) []string {
	t.Helper()
	ctx := context.Background()
	var got []string
	for off := 0; off < len(inst.Elements); off += batch {
		els := inst.Elements[off:min(off+batch, len(inst.Elements))]
		calls := 0
		err := h.IngestAuto(ctx, els, func(i int, admitted []osp.SetID) {
			if i != calls {
				t.Fatalf("callback order: got element %d, want %d", i, calls)
			}
			calls++
			got = append(got, fmt.Sprint(admitted))
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(els) {
			t.Fatalf("callback ran %d times for %d elements", calls, len(els))
		}
	}
	return got
}

// TestIngestAutoPinsStream is the happy path: with a live stream
// listener, the first IngestAuto dials once, pins the stream transport,
// and every later batch reuses the same connection. Verdicts match an
// HTTP twin and the drain matches the serial oracle.
func TestIngestAutoPinsStream(t *testing.T) {
	ctx := context.Background()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	streamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { streamLn.Close() })
	go srv.ServeStream(streamLn)                             //nolint:errcheck // closed by cleanup or Shutdown
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck

	const seed = 17
	inst := uniform(t, 35, 1100, 4, 9)
	c0, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	httpH := registerTwin(t, c0, inst, seed)

	// Same server, but the stream port goes through a counting proxy so
	// the test can assert the dial count.
	proxyAddr, accepts := countingProxy(t, streamLn.Addr().String())
	c, err := client.New(hs.URL, client.WithStreamAddr(proxyAddr))
	if err != nil {
		t.Fatal(err)
	}
	autoH := registerTwin(t, c, inst, seed)
	if got := autoH.Transport(); got != "auto" {
		t.Fatalf("transport before first ingest = %q, want auto", got)
	}

	const batch = 97
	gotAuto := ingestAuto(t, autoH, inst, batch)
	var wantHTTP []string
	for off := 0; off < len(inst.Elements); off += batch {
		vs, err := httpH.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			wantHTTP = append(wantHTTP, fmt.Sprint(v.Admitted))
		}
	}
	for i := range wantHTTP {
		if gotAuto[i] != wantHTTP[i] {
			t.Fatalf("element %d: IngestAuto admitted %s, HTTP twin %s", i, gotAuto[i], wantHTTP[i])
		}
	}
	if got := autoH.Transport(); got != "stream" {
		t.Fatalf("transport = %q, want stream", got)
	}
	if got := autoH.Codec(); got != "stream" {
		t.Fatalf("codec = %q, want stream", got)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("stream port dialed %d times across %d batches, want 1", n, (len(inst.Elements)+batch-1)/batch)
	}
	if err := autoH.Close(); err != nil {
		t.Fatal(err)
	}
	if got := autoH.Codec(); got == "stream" {
		t.Fatalf("codec still %q after Close", got)
	}

	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*client.Instance{httpH, autoH} {
		res, err := h.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(serial) {
			t.Fatalf("instance %s drained result differs from serial oracle", h.ID())
		}
	}
}

// TestIngestAutoFallsBackToHTTP is the satellite fix under test: the
// target node has no stream listener behind the configured address (the
// port answers, then hangs up before the handshake — or nothing listens
// at all). IngestAuto must retry the batch over binary HTTP once, pin
// HTTP for the instance, and never dial the dead port again.
func TestIngestAutoFallsBackToHTTP(t *testing.T) {
	for _, tc := range []struct {
		name string
		addr func(t *testing.T) (string, *atomic.Int32)
	}{
		{"listener-not-stream-server", func(t *testing.T) (string, *atomic.Int32) {
			return countingProxy(t, "") // accepts, then closes: handshake fails
		}},
		{"nothing-listening", func(t *testing.T) (string, *atomic.Int32) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close() // free the port: dials are refused
			return addr, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			// HTTP only — this node predates the stream port.
			srv := osp.NewServer(osp.ServerConfig{})
			hs := httptest.NewServer(srv)
			t.Cleanup(hs.Close)
			t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
			deadAddr, accepts := tc.addr(t)
			c, err := client.New(hs.URL, client.WithStreamAddr(deadAddr))
			if err != nil {
				t.Fatal(err)
			}
			const seed = 23
			inst := uniform(t, 25, 700, 3, 5)
			h := registerTwin(t, c, inst, seed)

			const batch = 64
			ingestAuto(t, h, inst, batch)
			if got := h.Transport(); got != "http" {
				t.Fatalf("transport after fallback = %q, want http", got)
			}
			// The HTTP arm underneath is the binary codec (the PR 5
			// negotiation, untouched by the transport fallback).
			if got := h.Codec(); got != "binary" {
				t.Fatalf("codec after fallback = %q, want binary", got)
			}
			if accepts != nil {
				if n := accepts.Load(); n != 1 {
					t.Fatalf("dead stream port dialed %d times across %d batches, want exactly 1",
						n, (len(inst.Elements)+batch-1)/batch)
				}
			}

			serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equal(serial) {
				t.Fatal("drained result differs from serial oracle after HTTP fallback")
			}
		})
	}
}

// TestIngestAutoNoStreamAddr pins the degenerate configuration: a client
// built without WithStreamAddr goes straight to HTTP with no dial at
// all, so cluster code can use IngestAuto unconditionally.
func TestIngestAutoNoStreamAddr(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	const seed = 7
	inst := uniform(t, 15, 300, 3, 3)
	h := registerTwin(t, c, inst, seed)
	ingestAuto(t, h, inst, 50)
	if got := h.Transport(); got != "http" {
		t.Fatalf("transport = %q, want http", got)
	}
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatal("drained result differs from serial oracle")
	}
}

// TestIngestAutoServerRefusalIsAuthoritative: a server that SPEAKS the
// stream protocol but refuses the instance (Error frame → *APIError)
// must surface the error — falling back to HTTP would mask a real
// registration problem.
func TestIngestAutoServerRefusalIsAuthoritative(t *testing.T) {
	ctx := context.Background()
	c, _ := startStreamServer(t)
	inst := uniform(t, 10, 60, 2, 1)
	h := registerTwin(t, c, inst, 1)
	if err := h.Remove(ctx); err != nil {
		t.Fatal(err)
	}
	err := h.IngestAuto(ctx, inst.Elements[:1], func(int, []osp.SetID) {})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("IngestAuto on removed instance = %v, want APIError (no HTTP fallback)", err)
	}
	if got := h.Transport(); got != "auto" {
		t.Fatalf("transport after authoritative refusal = %q, want auto (unpinned)", got)
	}
}
