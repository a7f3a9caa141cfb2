package cluster_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func logLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// A crash mid-append leaves a partial final line. Replay must drop it,
// count it, and keep every complete entry before it.
func TestOpenLogToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	lg, err := cluster.OpenLog(path)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := lg.Append(cluster.LogEntry{ID: "c-" + string(rune('0'+i)), Weights: []float64{1}, Sizes: []int{1}, Seed: uint64(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: chop the file in the middle of the
	// last JSON line.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatalf("truncate log: %v", err)
	}

	lg2, err := cluster.OpenLog(path)
	if err != nil {
		t.Fatalf("OpenLog after truncation: %v", err)
	}
	defer lg2.Close()
	if got := lg2.Len(); got != 2 {
		t.Fatalf("Len after truncated tail = %d, want 2", got)
	}
	if got := lg2.TruncatedTail(); got != 1 {
		t.Fatalf("TruncatedTail = %d, want 1", got)
	}
	for i, e := range lg2.Entries() {
		if want := "c-" + string(rune('0'+i)); e.ID != want {
			t.Fatalf("entry %d ID = %q, want %q", i, e.ID, want)
		}
	}

	// The next Append must overwrite the partial tail, leaving a clean
	// log: re-opening sees 3 entries and no truncation.
	if err := lg2.Append(cluster.LogEntry{ID: "c-9", Weights: []float64{1}, Sizes: []int{1}, Seed: 9}); err != nil {
		t.Fatalf("Append after truncated open: %v", err)
	}
	if err := lg2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lg3, err := cluster.OpenLog(path)
	if err != nil {
		t.Fatalf("OpenLog after repair: %v", err)
	}
	defer lg3.Close()
	if got := lg3.Len(); got != 3 {
		t.Fatalf("Len after repair = %d, want 3", got)
	}
	if got := lg3.TruncatedTail(); got != 0 {
		t.Fatalf("TruncatedTail after repair = %d, want 0", got)
	}
	if lines := logLines(t, path); len(lines) != 3 {
		t.Fatalf("log has %d lines after repair, want 3: %q", len(lines), lines)
	}
}

// A crash can also cut an append just before its newline, leaving a
// complete JSON entry unterminated. That entry was never acknowledged:
// replay drops it like any partial tail, and the next Append starts on a
// clean line instead of gluing onto it.
func TestOpenLogUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	lg, err := cluster.OpenLog(path)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for _, id := range []string{"c-0", "c-1"} {
		if err := lg.Append(cluster.LogEntry{ID: id, Weights: []float64{1}, Sizes: []int{1}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatalf("chop newline: %v", err)
	}

	lg2, err := cluster.OpenLog(path)
	if err != nil {
		t.Fatalf("OpenLog after a cut newline: %v", err)
	}
	if got, tail := lg2.Len(), lg2.TruncatedTail(); got != 1 || tail != 1 {
		t.Fatalf("Len = %d, TruncatedTail = %d; want 1, 1", got, tail)
	}
	if err := lg2.Append(cluster.LogEntry{ID: "c-9", Weights: []float64{1}, Sizes: []int{1}}); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if err := lg2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lg3, err := cluster.OpenLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer lg3.Close()
	var ids []string
	for _, e := range lg3.Entries() {
		ids = append(ids, e.ID)
	}
	if strings.Join(ids, ",") != "c-0,c-9" || lg3.TruncatedTail() != 0 {
		t.Fatalf("entries after recovery = %v (truncated %d), want [c-0 c-9] and a clean tail", ids, lg3.TruncatedTail())
	}
}

// Corruption in the MIDDLE of the log is not a crashed append — it must
// still fail the replay loudly.
func TestOpenLogRejectsInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	body := `{"id":"c-0","weights":[1],"sizes":[1],"seed":0}` + "\n" +
		`{"id":"c-1","weights":[1],"sizes":` + "\n" + // malformed, but not final
		`{"id":"c-2","weights":[1],"sizes":[1],"seed":2}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatalf("write log: %v", err)
	}
	if _, err := cluster.OpenLog(path); err == nil {
		t.Fatal("OpenLog accepted interior corruption")
	}
}

// LogFsync is a durability knob: verify the option threads through and
// appends still land correctly.
func TestOpenLogFsyncAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	lg, err := cluster.OpenLog(path, cluster.LogFsync())
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := lg.Append(cluster.LogEntry{ID: "c-0", Weights: []float64{2, 1}, Sizes: []int{1, 2}, Seed: 7, Policy: "greedy"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// No Close: entries must already be on disk (the file is written per
	// append, fsync'd, and never buffered in the process).
	lg2, err := cluster.OpenLog(path)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer lg2.Close()
	defer lg.Close()
	if got := lg2.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if e := lg2.Entries()[0]; e.ID != "c-0" || e.Policy != "greedy" || e.Seed != 7 {
		t.Fatalf("entry mismatch: %+v", e)
	}
}
