package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// The registration log is the failover substrate: an append-only record
// of every instance registration, in order. Because policy state is
// pure in (Info, seed), replaying the log's entries for one slot onto a
// fresh node reconstructs — bit-for-bit — the policy state the dead
// node held, with no snapshot, no state transfer, and no quiescing of
// the other nodes. The coordinator always keeps the log in memory;
// opening it on a file additionally makes it durable, so a restarted
// coordinator process can re-adopt a running fleet.

// LogEntry is one registration, with everything a replacement node
// needs to reach the identical policy state: the up-front Info, the
// shared seed, and the per-node engine sizing.
type LogEntry struct {
	// ID is the coordinator-level instance identifier.
	ID string `json:"id"`
	// Weights and Sizes are the instance's up-front information.
	Weights []float64 `json:"weights"`
	Sizes   []int     `json:"sizes"`
	// Seed is the shared policy seed — the whole "state transfer".
	Seed uint64 `json:"seed"`
	// Shards, BatchSize, QueueDepth size each node's engine; Policy
	// names the admission policy ("" = server default).
	Shards     int    `json:"shards,omitempty"`
	BatchSize  int    `json:"batch_size,omitempty"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	Policy     string `json:"policy,omitempty"`
	// FanOut records whether the instance is split across all nodes by
	// element hash (true) or pinned to one slot by the ring (false).
	FanOut bool `json:"fan_out,omitempty"`
	// Label tags the instance's metrics series.
	Label string `json:"label,omitempty"`
}

// Log is the append-only registration log: always in memory, optionally
// mirrored to a JSONL file. Safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	entries   []LogEntry
	f         *os.File // nil when memory-only
	fsync     bool
	truncated int // malformed tail lines dropped at open
}

// LogOption customizes OpenLog.
type LogOption func(*Log)

// LogFsync makes every Append fsync the backing file before returning,
// so an acknowledged registration survives not just a process crash but
// a machine crash. Registrations are rare (one per instance, never on
// the element hot path), so the per-append fsync cost is irrelevant
// next to the durability it buys.
func LogFsync() LogOption { return func(l *Log) { l.fsync = true } }

// NewLog returns a memory-only registration log.
func NewLog() *Log { return &Log{} }

// OpenLog opens (creating or appending) a file-backed registration log
// and loads any entries already in it, so a restarted coordinator
// resumes with the registrations of its predecessor.
//
// A malformed or truncated FINAL line — the signature of a crash mid-
// append — is tolerated: the tail line is dropped, counted
// (TruncatedTail) and overwritten by the next Append, instead of
// failing the whole replay the way corruption in the middle of the log
// (which no crash produces) still does.
func OpenLog(path string, opts ...LogOption) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: open registration log: %w", err)
	}
	entries, keep, truncated, err := readEntries(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Position the write cursor after the last good line: a dropped
	// partial tail is overwritten by the next Append rather than left to
	// corrupt the line after it.
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("cluster: seek registration log: %w", err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("cluster: truncate registration log tail: %w", err)
	}
	l := &Log{entries: entries, f: f, truncated: truncated}
	for _, opt := range opts {
		opt(l)
	}
	return l, nil
}

// readEntries parses a JSONL registration log, returning the entries,
// the byte offset just past the last well-formed line, and the number
// of malformed tail lines dropped (0 or 1 — anything malformed before
// the final line is still a hard error). A final line without its
// newline counts as malformed even when its JSON is complete: Append
// writes entry and newline in one write, so such a line is a crashed,
// unacknowledged append, and keeping it would glue the next Append onto
// it.
func readEntries(r io.Reader) (entries []LogEntry, keep int64, truncated int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	// adv is the byte length of the line just scanned, terminator (and
	// any CR) included; terminated reports whether it ended in '\n'.
	var (
		adv        int
		terminated bool
	)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		n, tok, err := bufio.ScanLines(data, atEOF)
		if tok != nil {
			adv, terminated = n, data[n-1] == '\n'
		}
		return n, tok, err
	})
	var (
		line    int
		badLine int // 1-based index of the first malformed line seen
		badErr  error
	)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if badErr != nil {
			// A malformed line with more lines after it is real corruption,
			// not a crashed append.
			return nil, 0, 0, fmt.Errorf("cluster: registration log line %d: %w", badLine, badErr)
		}
		if !terminated {
			badLine, badErr = line, errors.New("unterminated final line")
			continue
		}
		if len(raw) == 0 {
			keep += int64(adv)
			continue
		}
		var e LogEntry
		if jerr := json.Unmarshal(raw, &e); jerr != nil {
			badLine, badErr = line, jerr
			continue
		}
		entries = append(entries, e)
		keep += int64(adv)
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, 0, fmt.Errorf("cluster: read registration log: %w", serr)
	}
	if badErr != nil {
		truncated = 1
	}
	return entries, keep, truncated, nil
}

// Append records one registration. File-backed logs write the entry as
// ONE write syscall (entry + newline in a single buffer — the kernel
// appends it atomically with respect to other writers of the same fd),
// so a crash mid-append leaves at most one partial tail line, which the
// next OpenLog drops and counts instead of failing. With LogFsync the
// write is additionally flushed to stable storage before Append
// returns.
func (l *Log) Append(e LogEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		raw, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("cluster: encode registration log entry: %w", err)
		}
		raw = append(raw, '\n')
		if _, err := l.f.Write(raw); err != nil {
			return fmt.Errorf("cluster: append registration log: %w", err)
		}
		if l.fsync {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("cluster: fsync registration log: %w", err)
			}
		}
	}
	l.entries = append(l.entries, e)
	return nil
}

// Entries returns a copy of the log in append order.
func (l *Log) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Len returns the number of registrations logged.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// TruncatedTail reports how many malformed tail lines OpenLog dropped —
// 0 on a clean log, 1 after a crash mid-append. Exposed so replay
// tooling (and the osp_cluster_log_truncated_total metric) can surface
// that a crash was survived rather than silently absorbing it.
func (l *Log) TruncatedTail() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Close flushes and closes the backing file, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("cluster: close registration log: %w", err)
	}
	return nil
}
