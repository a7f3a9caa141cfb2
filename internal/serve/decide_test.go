package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/setsystem"
	"repro/internal/wire"
)

// countingPolicy wraps randpr and counts every decide its states make.
// Its state is not a *core.VectorState, so engine shards take the
// interface DecideInPlace path, and any second, handler-side decide
// through Decide is counted too.
type countingPolicy struct {
	inner core.Policy
	calls atomic.Int64
}

func (p *countingPolicy) Name() string { return "counting-randpr-test" }

func (p *countingPolicy) Setup(info core.Info, seed uint64) (core.PolicyState, error) {
	st, err := p.inner.Setup(info, seed)
	if err != nil {
		return nil, err
	}
	return countingState{st, &p.calls}, nil
}

type countingState struct {
	inner core.PolicyState
	calls *atomic.Int64
}

func (s countingState) DecideInPlace(members []setsystem.SetID, capacity int) []setsystem.SetID {
	s.calls.Add(1)
	return s.inner.DecideInPlace(members, capacity)
}

func (s countingState) Decide(members []setsystem.SetID, capacity int, buf []setsystem.SetID) []setsystem.SetID {
	s.calls.Add(1)
	return s.inner.Decide(members, capacity, buf)
}

var (
	counting     *countingPolicy
	countingOnce sync.Once
)

// registerCounting registers the counting policy once per test binary.
func registerCounting(t *testing.T) *countingPolicy {
	t.Helper()
	countingOnce.Do(func() {
		inner, err := core.LookupPolicy(core.DefaultPolicy)
		if err != nil {
			t.Fatal(err)
		}
		counting = &countingPolicy{inner: inner}
		if err := core.RegisterPolicy(counting); err != nil {
			t.Fatal(err)
		}
	})
	return counting
}

// TestOneDecidePerElement pins that every ingest arm answers from the
// shard's decide: the same batches ingested over JSON, binary HTTP and
// the stream cost exactly one policy decide per element, and each arm's
// drain equals the serial oracle.
func TestOneDecidePerElement(t *testing.T) {
	const seed = 17
	pol := registerCounting(t)
	inst := uniformInst(t, 50, 1500, 5, 8)
	oracle, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol.inner, Seed: seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	defer s.Shutdown(t.Context())
	addr := startStreamListener(t, s)

	sizes := []int{1, 7, 64, 250}
	batches := func(yield func([]setsystem.Element)) {
		for off, k := 0, 0; off < len(inst.Elements); k++ {
			end := min(off+sizes[k%len(sizes)], len(inst.Elements))
			yield(inst.Elements[off:end])
			off = end
		}
	}
	for _, arm := range []struct {
		name   string
		ingest func(t *testing.T, id string)
	}{
		{"json", func(t *testing.T, id string) {
			batches(func(els []setsystem.Element) {
				if rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
					IngestRequest{Elements: wireElems(els)}, nil); rec.Code != http.StatusOK {
					t.Fatalf("json ingest: status %d: %s", rec.Code, rec.Body.String())
				}
			})
		}},
		{"binary", func(t *testing.T, id string) {
			batches(func(els []setsystem.Element) {
				if rec := doBinary(t, s, id, wire.AppendElements(nil, els)); rec.Code != http.StatusOK {
					t.Fatalf("binary ingest: status %d: %s", rec.Code, rec.Body.String())
				}
			})
		}},
		{"stream", func(t *testing.T, id string) {
			ts := dialStream(t, addr, id)
			batches(func(els []setsystem.Element) {
				ts.send(els)
				ts.recv(els)
			})
			ts.fin()
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			var reg RegisterResponse
			if rec := do(t, s, "POST", "/v1/instances", RegisterRequest{
				Weights: inst.Weights, Sizes: inst.Sizes, Seed: seed, Shards: 2, Policy: pol.Name(),
			}, &reg); rec.Code != http.StatusCreated {
				t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
			}
			pol.calls.Store(0)
			arm.ingest(t, reg.ID)
			var dr DrainResponse
			if rec := do(t, s, "POST", "/v1/instances/"+reg.ID+"/drain", nil, &dr); rec.Code != http.StatusOK {
				t.Fatalf("drain: status %d: %s", rec.Code, rec.Body.String())
			}
			if got, want := pol.calls.Load(), int64(len(inst.Elements)); got != want {
				t.Errorf("%d decide calls for %d elements, want exactly one per element", got, want)
			}
			if !dr.Result.Core().Equal(oracle) {
				t.Error("drained result differs from the serial oracle")
			}
		})
	}
}
