package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"xdse/internal/evalcache"
	"xdse/internal/obs"
)

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
// search each layer itself, so that skew is a 400 too. Version 5 drops the
// envelope: the body is a JSON header line followed by the record lines as
// the store writes them (see DecodeEvalBody), which a version-4 coordinator
// cannot parse at all.
const ProtocolVersion = 5

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

// EvalHeader is the first line of the worker's answer to one shard, one
// compact JSON object. The body is that line and then exactly Records record
// lines, each an evalcache.AppendRecord line as the store writes it, newline
// included:
//
//	{"model_version":"…","evaluated":4,"records":44}
//	<crc> r1 <version> <mode> …
//	…
//
// The worker sets Content-Length, so the coordinator reads the body into
// one buffer of its size and decodes each line where it lies.
type EvalHeader struct {
	// ModelVersion is the worker's perf.ModelVersion, echoed so the
	// coordinator can re-verify the handshake on every response.
	ModelVersion string `json:"model_version"`
	// Evaluated is the number of points the worker evaluated.
	Evaluated int `json:"evaluated"`
	// Records is the number of record lines after the header. A body with
	// fewer is torn, a transient fault like any unreadable response.
	Records int `json:"records"`
	// Spans are the worker-side span events of this shard (queue wait,
	// per-point evaluations, record export), emitted only when the request
	// carried an obs.TraceHeader and already causally linked under the
	// coordinator's rpc span. The header stays JSON so that fields like this
	// one stay additive: old coordinators ignore them and old workers never
	// send them, so they need no protocol bump (see docs/EXTENDING.md).
	Spans []obs.Event `json:"spans,omitempty"`
}

// DecodeEvalBody parses one /eval response body: the EvalHeader line, then
// exactly the header's count of newline-terminated record lines. Each line
// is decoded where it lies in body, through the store's parser, so the
// records keep nothing of body alive. Their strings come from known, a
// read-only table every shard of a run shares (eval.Evaluator.RecordStrings:
// the coordinator's shapes, mode and version), or from one intern table for
// the whole body, which holds the sub-keys. A line that fails its CRC, its
// parse, or the version check against version is dropped and counted in
// rejected — the coordinator recomputes that layer itself. An unreadable
// header, or a count of lines other than the header's (a body torn short,
// or one with no final newline), is an error: the whole response is
// unusable.
func DecodeEvalBody(body []byte, version string, known map[string]string) (hdr EvalHeader, recs []evalcache.Record, rejected int, err error) {
	end := bytes.IndexByte(body, '\n')
	if end < 0 {
		return EvalHeader{}, nil, 0, errors.New("no header line")
	}
	if err := json.Unmarshal(body[:end], &hdr); err != nil {
		return EvalHeader{}, nil, 0, fmt.Errorf("header: %w", err)
	}
	lines := body[end+1:]
	if len(lines) > 0 && lines[len(lines)-1] != '\n' {
		return EvalHeader{}, nil, 0, errors.New("torn body: the last line has no newline")
	}
	if n := bytes.Count(lines, []byte{'\n'}); n != hdr.Records {
		return EvalHeader{}, nil, 0, fmt.Errorf("body holds %d record lines, its header counts %d", n, hdr.Records)
	}
	recs = make([]evalcache.Record, 0, hdr.Records)
	strs := make(map[string]string)
	for len(lines) > 0 {
		end := bytes.IndexByte(lines, '\n')
		rec, v, err := evalcache.DecodeRecord(lines[:end], known, strs)
		lines = lines[end+1:]
		if err != nil || v != version {
			rejected++
			continue
		}
		recs = append(recs, rec)
	}
	return hdr, recs, rejected, nil
}
