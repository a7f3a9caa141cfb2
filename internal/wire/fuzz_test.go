package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/setsystem"
	"repro/internal/workload"
)

// FuzzDecodeBatch drives both batch decoders with arbitrary bytes and
// cross-checks them: neither may panic, and whenever the copying decoder
// accepts a frame the aliasing decoder must reproduce its output bit for
// bit. The seed corpus is the round-trip frames the codec tests use plus
// each structural corruption the rejection matrix covers.
func FuzzDecodeBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	inst, err := workload.Uniform(workload.UniformConfig{M: 64, N: 40, Load: 5, MinLoad: 1, Capacity: 2}, rng)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(AppendElements(nil, inst.Elements))
	f.Add(AppendElements(nil, inst.Elements[:1]))
	f.Add(AppendElements(nil, []setsystem.Element{{Members: []setsystem.SetID{0}, Capacity: 1}}))
	short := AppendElements(nil, inst.Elements[:4])
	f.Add(short[:len(short)-2])
	bad := append([]byte(nil), short...)
	bad[4] = 9
	f.Add(bad)
	f.Add([]byte("OSPB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		members, offs, caps, derr := DecodeBatch(data, nil, nil, nil)

		// Alias the same bytes from an aligned position.
		buf := make([]byte, len(data)+4)
		shift := BatchAliasShift(buf)
		aligned := buf[shift : shift+len(data)]
		copy(aligned, data)
		aMembers, aOffs, aCaps, ok, aerr := AliasBatch(aligned, nil)

		if derr == nil {
			if aerr != nil {
				t.Fatalf("DecodeBatch accepted, AliasBatch errored: %v", aerr)
			}
			if !ok {
				t.Fatal("AliasBatch refused an aligned frame DecodeBatch accepted")
			}
			if len(aMembers) != len(members) || len(aOffs) != len(offs) || len(aCaps) != len(caps) {
				t.Fatalf("shapes differ: alias %d/%d/%d, copy %d/%d/%d",
					len(aMembers), len(aOffs), len(aCaps), len(members), len(offs), len(caps))
			}
			for i := range members {
				if aMembers[i] != members[i] {
					t.Fatalf("member %d: alias %d, copy %d", i, aMembers[i], members[i])
				}
			}
			for i := range offs {
				if aOffs[i] != offs[i] {
					t.Fatalf("off %d: alias %d, copy %d", i, aOffs[i], offs[i])
				}
			}
			for i := range caps {
				if aCaps[i] != caps[i] {
					t.Fatalf("cap %d: alias %d, copy %d", i, aCaps[i], caps[i])
				}
			}
			// Round-trip: re-encoding the decoded layout reproduces the frame.
			if re := AppendBatch(nil, members, offs, caps); !bytes.Equal(re, data) {
				t.Fatalf("re-encoded frame differs: %d vs %d bytes", len(re), len(data))
			}
			return
		}

		// DecodeBatch rejected. AliasBatch may still accept one class of
		// frame the copying decoder refuses up front: values past MaxInt32,
		// which alias to negative int32s and are left for Batch.Validate.
		// Any such acceptance must carry a visibly negative value.
		if ok {
			negative := false
			for _, c := range aCaps {
				if c < 0 {
					negative = true
				}
			}
			for _, m := range aMembers {
				if m < 0 {
					negative = true
				}
			}
			if !negative {
				t.Fatalf("AliasBatch accepted a frame DecodeBatch rejected (%v) with no out-of-range value", derr)
			}
		}
	})
}

// FuzzDecodeSnapshot drives the snapshot decoder — fed both from disk
// (ospserve -snapshot-dir) and from POST /v1/instances restores — with
// arbitrary bytes. It must never panic, and every frame it accepts must
// satisfy the restore invariants it promises and re-encode to a frame
// that decodes to the same snapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	sample := sampleSnapshot()
	raw := AppendSnapshot(nil, sample)
	f.Add(raw)
	sample.Final = true
	f.Add(AppendSnapshot(nil, sample))
	f.Add(AppendSnapshot(nil, &Snapshot{ID: "i-1"}))
	f.Add(raw[:len(raw)-3])
	bad := append([]byte(nil), raw...)
	bad[4] = 9
	f.Add(bad)
	f.Add([]byte("OSPS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		m := len(s.Weights)
		if len(s.Sizes) != m || len(s.Assigned) != m {
			t.Fatalf("array lengths %d/%d/%d differ", m, len(s.Sizes), len(s.Assigned))
		}
		if s.Submitted != s.Processed {
			t.Fatalf("accepted an unquiesced snapshot: submitted %d, processed %d", s.Submitted, s.Processed)
		}
		if s.Shards < 0 || s.BatchSize < 0 || s.QueueDepth < 0 {
			t.Fatalf("accepted negative engine sizing %d/%d/%d", s.Shards, s.BatchSize, s.QueueDepth)
		}
		for i := range s.Assigned {
			if s.Assigned[i] < 0 || int(s.Assigned[i]) > s.Sizes[i] {
				t.Fatalf("set %d: assigned %d outside [0, %d]", i, s.Assigned[i], s.Sizes[i])
			}
		}
		enc := AppendSnapshot(nil, s)
		if len(enc) != SnapshotLen(s) {
			t.Fatalf("re-encoded %d bytes, SnapshotLen says %d", len(enc), SnapshotLen(s))
		}
		s2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if enc2 := AppendSnapshot(nil, s2); !bytes.Equal(enc, enc2) {
			t.Fatal("decode∘encode is not a fixed point")
		}
	})
}
