package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Snapshot/restore at the service layer: Export quiesces one instance
// and frames its recoverable state (engine.Checkpoint → wire.Snapshot);
// Pool.Restore is Register's mirror that rebuilds an instance — same
// ID, same policy state, counters resumed — from such a frame. The
// HTTP surface is POST /v1/instances/{id}/snapshot (returns the frame,
// and persists it when the server runs with a snapshot directory) and
// POST /v1/instances with Content-Type application/x-osp-snapshot
// (restore-on-register). ospserve -snapshot-dir wires WriteSnapshots /
// RestoreDir around shutdown and boot so a restart loses nothing.

// exportQuiesceTimeout bounds how long a snapshot request waits for the
// engine's in-flight batches to be decided. The backlog is bounded by
// shards × queue depth batches that the shards are actively consuming,
// so multi-second stalls indicate something much worse than load.
const exportQuiesceTimeout = 30 * time.Second

// Export quiesces the instance and returns its snapshot frame contents.
// The instance keeps serving afterwards — exporting is a read. Every
// ingest arm is fenced out for the duration (rw write side), so the
// checkpoint's quiesce point covers HTTP and stream ingest alike.
func (in *Instance) Export(ctx context.Context) (*wire.Snapshot, error) {
	in.rw.Lock()
	defer in.rw.Unlock()
	cp, err := in.eng.Checkpoint(ctx)
	if err != nil {
		return nil, err
	}
	cfg := in.eng.Config()
	return &wire.Snapshot{
		ID:     in.id,
		Label:  in.label,
		Policy: in.eng.PolicyName(),
		Seed:   in.seed,
		Shards: cfg.Shards, BatchSize: cfg.BatchSize, QueueDepth: cfg.QueueDepth,
		Final:     cp.Final && in.Final(),
		Submitted: cp.Submitted, Processed: cp.Processed, Batches: cp.Batches,
		AssignedTotal: cp.AssignedTotal, Dropped: cp.Dropped,
		Weights:  in.info.Weights,
		Sizes:    in.info.Sizes,
		Assigned: cp.Assigned,
	}, nil
}

// Restore rebuilds an instance from a snapshot under its original ID:
// the engine's policy state is reconstructed from (Info, policy, seed) —
// identical by purity — and the snapshot's per-set counts become the
// baseline its eventual drain merges, so the restored instance's final
// Result is bit-for-bit what the uninterrupted instance would have
// reported. A Final snapshot is restored directly into the drained
// state with its terminal Result re-derived.
//
// The ID must be of the pool's own "i-<n>" form (snapshots come from a
// pool); the registration counter is bumped past it so later fresh
// registrations never collide.
func (p *Pool) Restore(snap *wire.Snapshot) (*Instance, error) {
	n, err := restoreID(snap.ID)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if len(p.byID) >= p.max {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w (max %d)", ErrPoolFull, p.max)
	}
	if _, exists := p.byID[snap.ID]; exists {
		p.mu.Unlock()
		return nil, fmt.Errorf("serve: restore: instance %s already exists", snap.ID)
	}
	if n > p.nextID {
		p.nextID = n
	}
	p.mu.Unlock()

	pol, err := core.LookupPolicy(snap.Policy)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	cfg := engine.Config{
		Shards: snap.Shards, BatchSize: snap.BatchSize, QueueDepth: snap.QueueDepth,
		Policy: snap.Policy,
	}
	detach := func() {}
	if p.attachTel != nil {
		cfg.Telemetry = p.attachTel(snap.ID, pol.Name(), cfg.Resolved().Shards)
		if p.detachTel != nil {
			detach = func() { p.detachTel(snap.ID) }
		}
	}
	info := core.Info{Weights: snap.Weights, Sizes: snap.Sizes}
	eng, err := engine.NewFromCheckpoint(info, snap.Seed, cfg, &engine.Checkpoint{
		Submitted: snap.Submitted, Processed: snap.Processed, Batches: snap.Batches,
		AssignedTotal: snap.AssignedTotal, Dropped: snap.Dropped,
		Assigned: snap.Assigned, Final: snap.Final,
	})
	if err != nil {
		detach()
		return nil, err
	}
	in := &Instance{
		id:    snap.ID,
		label: snap.Label,
		seed:  snap.Seed,
		info:  info,
		eng:   eng,
	}
	if snap.Final {
		// The stream logically ended before the snapshot: re-derive the
		// terminal Result (the drain merges the baseline counts and sweeps
		// completions deterministically — exact) and restore as drained.
		in.final.Store(true)
		if _, err := eng.Drain(); err != nil {
			detach()
			return nil, err
		}
	}

	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		eng.Drain() //nolint:errcheck // nothing streamed since restore
		detach()
		return nil, ErrPoolClosed
	case len(p.byID) >= p.max:
		p.mu.Unlock()
		eng.Drain() //nolint:errcheck
		detach()
		return nil, fmt.Errorf("%w (max %d)", ErrPoolFull, p.max)
	}
	if _, exists := p.byID[in.id]; exists {
		p.mu.Unlock()
		eng.Drain() //nolint:errcheck
		detach()
		return nil, fmt.Errorf("serve: restore: instance %s already exists", in.id)
	}
	p.byID[in.id] = in
	p.mu.Unlock()
	return in, nil
}

// restoreID validates the "i-<n>" form and extracts the counter.
func restoreID(id string) (int, error) {
	digits, ok := strings.CutPrefix(id, "i-")
	if !ok {
		return 0, fmt.Errorf("serve: restore: instance id %q is not of the form i-<n>", id)
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("serve: restore: instance id %q is not of the form i-<n>", id)
	}
	return n, nil
}

// handleSnapshot serves POST /v1/instances/{id}/snapshot: quiesce the
// instance, answer its snapshot frame, and — when the server runs with
// a snapshot directory — persist the frame atomically so the state
// survives even a kill -9 from this moment on.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instance(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), exportQuiesceTimeout)
	defer cancel()
	snap, err := in.Export(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "snapshot: %v", err)
		return
	}
	raw := wire.AppendSnapshot(make([]byte, 0, wire.SnapshotLen(snap)), snap)
	if s.cfg.SnapshotDir != "" {
		if err := writeFileAtomic(s.cfg.SnapshotDir, snapshotFileName(in.ID()), raw); err != nil {
			writeError(w, http.StatusInternalServerError, "snapshot: persist: %v", err)
			return
		}
	}
	w.Header().Set("Content-Type", wire.ContentTypeSnapshot)
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	w.Write(raw) //nolint:errcheck // client gone mid-write is not actionable
}

// handleRestore is the restore arm of POST /v1/instances, taken when
// the request body is a snapshot frame (Content-Type
// application/x-osp-snapshot). The same admission clamps as a fresh
// registration apply — a snapshot is still an unauthenticated request.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "restore: read body: %v", err)
		return
	}
	snap, err := wire.DecodeSnapshot(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	if msg := vetSnapshot(snap); msg != "" {
		writeError(w, http.StatusBadRequest, "restore: %s", msg)
		return
	}
	in, err := s.pool.Restore(snap)
	switch {
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrPoolFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, RegisterResponse{
		ID: in.ID(), Shards: in.Shards(), Policy: in.Policy(), State: in.State().String(),
	})
}

// vetSnapshot applies the registration-time semantic checks and sizing
// clamps to a decoded snapshot ("" = acceptable). Structural and
// restore-invariant checks already happened in wire.DecodeSnapshot.
func vetSnapshot(snap *wire.Snapshot) string {
	if len(snap.Weights) == 0 {
		return "at least one set required"
	}
	if len(snap.Weights) > maxSets {
		return fmt.Sprintf("%d sets exceeds limit %d", len(snap.Weights), maxSets)
	}
	for i, weight := range snap.Weights {
		if weight < 0 || math.IsInf(weight, 1) || math.IsNaN(weight) {
			return fmt.Sprintf("set %d has invalid weight %v", i, weight)
		}
		if snap.Sizes[i] < 1 {
			return fmt.Sprintf("set %d has size %d, want >= 1", i, snap.Sizes[i])
		}
	}
	if snap.Shards > maxShards {
		return fmt.Sprintf("shards %d out of range [0, %d]", snap.Shards, maxShards)
	}
	if snap.BatchSize > maxBatchSize {
		return fmt.Sprintf("batch_size %d out of range [0, %d]", snap.BatchSize, maxBatchSize)
	}
	if snap.QueueDepth > maxQueueDepth {
		return fmt.Sprintf("queue_depth %d out of range [0, %d]", snap.QueueDepth, maxQueueDepth)
	}
	resolved := engine.Config{
		Shards: snap.Shards, BatchSize: snap.BatchSize, QueueDepth: snap.QueueDepth,
	}.Resolved()
	if resolved.Shards*len(snap.Weights) > maxCounterCells {
		return fmt.Sprintf("%d shards x %d sets exceeds %d counter cells", resolved.Shards, len(snap.Weights), maxCounterCells)
	}
	if resolved.Shards*(resolved.QueueDepth+1) > maxInFlightBatch {
		return fmt.Sprintf("%d shards x %d queue depth exceeds %d in-flight batches", resolved.Shards, resolved.QueueDepth, maxInFlightBatch)
	}
	return ""
}

// snapshotFileName maps an instance ID to its file in the snapshot
// directory. IDs are pool-generated ("i-<n>"), so the name is always a
// clean single path element.
func snapshotFileName(id string) string { return id + ".osps" }

// WriteSnapshots exports every live instance into dir, one atomic file
// each, replacing whatever snapshot files a previous run left there —
// the pool is the authority on what exists; stale files must not
// resurrect removed instances at the next boot. Called by the daemon
// after its graceful shutdown drain (the engines are quiesced by then,
// so every export is instant). Export errors are joined, not
// short-circuited: one bad instance must not cost the others their
// durability.
func (s *Server) WriteSnapshots(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: snapshot dir: %w", err)
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "*.osps"))
	for _, path := range stale {
		os.Remove(path) //nolint:errcheck // best effort; overwritten below anyway
	}
	var errs []error
	for _, in := range s.pool.Instances() {
		snap, err := in.Export(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("instance %s: %w", in.ID(), err))
			continue
		}
		raw := wire.AppendSnapshot(make([]byte, 0, wire.SnapshotLen(snap)), snap)
		if err := writeFileAtomic(dir, snapshotFileName(in.ID()), raw); err != nil {
			errs = append(errs, fmt.Errorf("instance %s: %w", in.ID(), err))
		}
	}
	return errors.Join(errs...)
}

// RestoreDir restores every snapshot file in dir into the pool —
// the boot-time mirror of WriteSnapshots. A missing directory is a
// first boot, not an error. Undecodable or unrestorable files are
// joined into the returned error; the good ones are restored regardless.
func (s *Server) RestoreDir(dir string) (restored int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.osps"))
	if err != nil {
		return 0, fmt.Errorf("serve: snapshot dir: %w", err)
	}
	var errs []error
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		snap, err := wire.DecodeSnapshot(raw)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(path), err))
			continue
		}
		if msg := vetSnapshot(snap); msg != "" {
			errs = append(errs, fmt.Errorf("%s: %s", filepath.Base(path), msg))
			continue
		}
		if _, err := s.pool.Restore(snap); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(path), err))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}

// writeFileAtomic writes name under dir with crash-safe visibility:
// the bytes go to a temp file that is fsynced before a rename onto the
// final name, and the directory is fsynced after, so a crash at any
// point leaves either the old file or the new one — never a torn
// mixture, never a name pointing at unflushed data.
func writeFileAtomic(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) //nolint:errcheck // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
