package fleet

import "xdse/internal/obs"

// ProtocolVersion stamps every fleet request. A worker that receives a
// request with a protocol it does not speak rejects it with 400 (permanent),
// so a mixed-version fleet fails loudly at dispatch instead of silently
// mis-evaluating shards. Bump it when the request/response shape or the
// record wire format changes incompatibly (see docs/EXTENDING.md). Version 2
// dropped version 1's lease token: workers reject unknown fields, so a
// version-1 worker would refuse every version-2 request anyway. Version 3
// ships records without their breakdown, which a version-2 coordinator
// cannot decode: it would silently drop every record and search each layer
// itself, so the bump turns that skew into a loud 400. Version 4 ships
// records as fixed-field lines (the evalcache record codec) in a compact
// envelope; a version-3 coordinator would count every such line corrupt and
// search each layer itself, so that skew is a 400 too.
const ProtocolVersion = 4

// EvalRequest is the body of POST /eval — one shard of a campaign batch.
// The worker evaluates every point under the given configuration and returns
// the content-addressed layer records it computed; the coordinator installs
// them and replays the design evaluations locally, which is what keeps
// merged campaigns bit-identical to single-node runs.
type EvalRequest struct {
	// Protocol is the fleet protocol version (ProtocolVersion).
	Protocol int `json:"protocol"`
	// ModelVersion is the coordinator's perf.ModelVersion; a worker whose
	// own version differs refuses the shard with 412 (version skew is a
	// permanent, quarantining fault).
	ModelVersion string `json:"model_version"`
	// Model names the workload model (workload.ByName).
	Model string `json:"model"`
	// Mode is the mapper mode name (eval.MapperMode.String()).
	Mode string `json:"mode"`
	// MapTrials is the per-layer mapping-search budget.
	MapTrials int `json:"map_trials"`
	// Seed is the evaluation seed (participates in random-mode cache keys).
	Seed int64 `json:"seed"`
	// Points are the design points of the shard, in arch.Point.Key form.
	Points []string `json:"points"`
}

// EvalResponse is the worker's answer to one shard: the content-addressed
// layer records (evalcache.EncodeRecord lines) its evaluations produced,
// sent as compact JSON.
type EvalResponse struct {
	// ModelVersion is the worker's perf.ModelVersion, echoed so the
	// coordinator can re-verify the handshake on every response.
	ModelVersion string `json:"model_version"`
	// Records are encoded evalcache records, one line each (no newline).
	// Each carries its own CRC and version stamp and is re-verified by the
	// receiver, so a corrupted record degrades to a recompute, never to a
	// wrong result.
	Records []string `json:"records"`
	// Evaluated is the number of points the worker evaluated.
	Evaluated int `json:"evaluated"`
	// Spans are the worker-side span events of this shard (queue wait,
	// per-point evaluations, record export), emitted only when the request
	// carried an obs.TraceHeader and already causally linked under the
	// coordinator's rpc span. The field is additive — old coordinators
	// ignore it and old workers never send it — so it needs no protocol
	// bump (see docs/EXTENDING.md).
	Spans []obs.Event `json:"spans,omitempty"`
}
