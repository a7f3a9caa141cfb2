package cluster

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadEntries drives the registration-log reader with arbitrary
// file contents. It must never panic, and whenever it accepts a log,
// OpenLog's recovery contract must hold: keep lies within the file, and
// the file truncated to keep re-reads to the same entries with nothing
// left to drop — so the next Append lands on a clean line boundary.
func FuzzReadEntries(f *testing.F) {
	good := []byte(`{"id":"c-0","weights":[1,2],"sizes":[1,1],"seed":7}` + "\n" +
		`{"id":"c-1","weights":[0.5],"sizes":[3],"seed":9,"shards":2,"policy":"first-fit","fan_out":true,"label":"x"}` + "\n")
	f.Add(good)
	f.Add(good[:len(good)-9]) // crash mid-append: partial tail line
	f.Add(good[:len(good)-1]) // crash just before the tail's newline
	f.Add(append([]byte("\n\n"), good...))
	f.Add([]byte("not json\n" + string(good)))
	f.Add(bytes.ReplaceAll(good, []byte("\n"), []byte("\r\n")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, keep, truncated, err := readEntries(bytes.NewReader(data))
		if err != nil {
			return
		}
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep %d outside the %d-byte log", keep, len(data))
		}
		if truncated != 0 && truncated != 1 {
			t.Fatalf("truncated = %d, want 0 or 1", truncated)
		}
		again, keep2, truncated2, err := readEntries(bytes.NewReader(data[:keep]))
		if err != nil {
			t.Fatalf("re-reading the kept prefix: %v", err)
		}
		if keep2 != keep || truncated2 != 0 {
			t.Fatalf("kept prefix re-reads to keep %d, truncated %d; want %d, 0", keep2, truncated2, keep)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("kept prefix re-reads to %d entries, want the %d read", len(again), len(entries))
		}
	})
}
