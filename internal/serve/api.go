package serve

import (
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setsystem"
)

// This file defines the JSON wire shapes of the admission service's HTTP
// API. osp/client mirrors these shapes field-for-field; the contract is
// the JSON, not the Go types, and the client round-trip tests pin the two
// against each other. docs/OPERATIONS.md documents every endpoint with
// request/response examples.

// RegisterRequest is the body of POST /v1/instances: the up-front
// information of an OSP instance (per-set weights and declared sizes —
// exactly what an online algorithm may know before the stream starts),
// the shared priority seed, and optional engine sizing.
type RegisterRequest struct {
	// Weights[i] is w(S_i) >= 0. Required, same length as Sizes.
	Weights []float64 `json:"weights"`
	// Sizes[i] is |S_i|, the declared element count of set i. Required.
	Sizes []int `json:"sizes"`
	// Seed is the shared 64-bit priority seed. Every replica given the
	// same seed — including the serial oracle a client verifies against —
	// agrees on all admission decisions.
	Seed uint64 `json:"seed"`
	// Shards, BatchSize and QueueDepth size the instance's engine; zero
	// values take the engine defaults (GOMAXPROCS shards, 64-element
	// batches, 8 queued batches per shard).
	Shards     int `json:"shards,omitempty"`
	BatchSize  int `json:"batch_size,omitempty"`
	QueueDepth int `json:"queue_depth,omitempty"`
	// Policy names the admission policy the instance's engine runs; ""
	// means the default "randpr". Unknown names are rejected with 400;
	// the registered names are in the error message and documented in
	// docs/OPERATIONS.md.
	Policy string `json:"policy,omitempty"`
	// Label is an optional free-form tag echoed as the "label" label on
	// the instance's /metrics series.
	Label string `json:"label,omitempty"`
}

// RegisterResponse is the body of a successful POST /v1/instances.
type RegisterResponse struct {
	// ID is the server-assigned instance identifier used in all
	// /v1/instances/{id}/... paths.
	ID string `json:"id"`
	// Shards is the resolved shard-worker count.
	Shards int `json:"shards"`
	// Policy is the resolved admission-policy name ("randpr" when the
	// request left it empty).
	Policy string `json:"policy"`
	// State is the lifecycle state, "idle" at registration.
	State string `json:"state"`
}

// WireElement is one arriving element on the wire: the parent sets C(u)
// in strictly increasing SetID order, and the capacity b(u) >= 1.
type WireElement struct {
	Members  []setsystem.SetID `json:"members"`
	Capacity int               `json:"capacity"`
}

// IngestRequest is the body of POST /v1/instances/{id}/elements: a batch
// of elements in arrival order. The batch is atomic — if any element is
// invalid the whole batch is rejected and nothing is ingested.
type IngestRequest struct {
	Elements []WireElement `json:"elements"`
}

// Verdict is the immediate admit/drop decision for one element: the at
// most b(u) parent sets the element was assigned to, and the memberships
// denied — in the paper's router reading, the frames whose packet was
// forwarded and the frames whose packet was dropped. Both lists are in
// ascending SetID order.
type Verdict struct {
	Admitted []setsystem.SetID `json:"admitted"`
	Dropped  []setsystem.SetID `json:"dropped"`
}

// IngestResponse is the body of a successful ingest: one verdict per
// batched element, in batch order.
type IngestResponse struct {
	Verdicts []Verdict `json:"verdicts"`
	// Ingested is the number of elements accepted (always the full batch
	// on success; the field lets clients accumulate totals cheaply).
	Ingested int `json:"ingested"`
}

// WireResult is a core.Result on the wire. Float64 benefits survive the
// JSON round trip bit-for-bit (Go emits the shortest representation that
// parses back exactly), so a client-side Result.Equal check against a
// local serial run is still exact.
type WireResult struct {
	Completed []setsystem.SetID `json:"completed"`
	Benefit   float64           `json:"benefit"`
	Assigned  []int32           `json:"assigned"`
}

// wireResult converts a drained engine result to its wire shape.
func wireResult(r *core.Result) WireResult {
	return WireResult{Completed: r.Completed, Benefit: r.Benefit, Assigned: r.Assigned}
}

// Core converts the wire shape back to a core.Result (the client's drain
// path).
func (r WireResult) Core() *core.Result {
	return &core.Result{Completed: r.Completed, Benefit: r.Benefit, Assigned: r.Assigned}
}

// MetricsSnapshot is an engine.Snapshot on the wire (see engine.Snapshot
// for field semantics).
type MetricsSnapshot struct {
	Submitted       uint64  `json:"submitted"`
	Processed       uint64  `json:"processed"`
	Batches         uint64  `json:"batches"`
	Assigned        uint64  `json:"assigned"`
	Dropped         uint64  `json:"dropped"`
	CompletedSets   int     `json:"completed_sets"`
	CompletedWeight float64 `json:"completed_weight"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	ElementsPerSec  float64 `json:"elements_per_sec"`
}

// wireSnapshot converts an engine snapshot to its wire shape, rounding
// non-finite rates (possible only on a zero-duration clock) to zero.
func wireSnapshot(s engine.Snapshot) MetricsSnapshot {
	rate := s.ElementsPerSec
	if math.IsInf(rate, 0) || math.IsNaN(rate) {
		rate = 0
	}
	return MetricsSnapshot{
		Submitted:       s.Submitted,
		Processed:       s.Processed,
		Batches:         s.Batches,
		Assigned:        s.Assigned,
		Dropped:         s.Dropped,
		CompletedSets:   s.CompletedSets,
		CompletedWeight: s.CompletedWeight,
		ElapsedSeconds:  s.Elapsed.Seconds(),
		ElementsPerSec:  rate,
	}
}

// DrainResponse is the body of POST /v1/instances/{id}/drain: the final
// result — bit-for-bit identical to a serial HashRandPr run under the
// instance's seed — and the frozen metrics. Drain is idempotent; repeated
// drains return the same result.
type DrainResponse struct {
	Result  WireResult      `json:"result"`
	Metrics MetricsSnapshot `json:"metrics"`
}

// InstanceStatus is one instance's row in GET /v1/instances and the body
// of GET /v1/instances/{id}.
type InstanceStatus struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	State string `json:"state"`
	Seed  uint64 `json:"seed"`
	// Policy is the instance's resolved admission-policy name.
	Policy string `json:"policy"`
	Shards int    `json:"shards"`
	// Sets is m, the number of sets in the instance's universe.
	Sets    int             `json:"sets"`
	Metrics MetricsSnapshot `json:"metrics"`
}

// ListResponse is the body of GET /v1/instances.
type ListResponse struct {
	Instances []InstanceStatus `json:"instances"`
}

// PolicyDescription is one row of GET /v1/policies: a registered
// admission-policy name a RegisterRequest may carry, and the registry's
// one-line description of it.
type PolicyDescription struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// PoliciesResponse is the body of GET /v1/policies, sorted by name.
type PoliciesResponse struct {
	Policies []PolicyDescription `json:"policies"`
}

// DecisionsResponse is the body of GET /v1/instances/{id}/decisions:
// the most recent flushed entries of the instance's sampled decision
// log, oldest first (newest last). Available only when the server runs
// with a decision log (ospserve -decision-log); otherwise the endpoint
// answers 404.
type DecisionsResponse struct {
	Instance string `json:"instance"`
	// SampleEvery is the log's per-shard sampling period: every Nth
	// decision of each shard is recorded. 1 means every decision.
	SampleEvery int `json:"sample_every"`
	// Decisions is the retained tail, bounded by the log's tail size and
	// the request's ?n= parameter. The entry schema is obs.Decision,
	// identical to the JSON-lines sink format (docs/OPERATIONS.md).
	Decisions []obs.Decision `json:"decisions"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
