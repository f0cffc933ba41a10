package perf

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// modelVersionSeed is the manual half of the cost-model version: bump it
// whenever Evaluate's arithmetic changes in a way the constants below do not
// capture (a new factor in the latency tree, a changed rounding rule, a
// reinterpreted mapping field). Forgetting to bump it after such a change
// would let the persistent evaluation cache (internal/evalcache) serve
// results computed by the old model — see docs/EXTENDING.md.
const modelVersionSeed = "perf-model-v1"

// ModelVersion returns a short content-derived identifier of the cost model:
// a hash over the manual seed above and every constant the latency and
// traffic arithmetic bakes in (DMA burst overhead, element width, and the
// dimensionalities of the mapping space). The persistent evaluation cache
// stamps each record with this string, so changing any of these inputs
// silently retires every entry computed under the old model instead of
// replaying stale costs. Its inputs are constants, so it is computed once.
func ModelVersion() string { return modelVersion() }

var modelVersion = sync.OnceValue(func() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf(
		"%s;dma_burst=%g;bytes_per_elem=%g;dims=%d;levels=%d;tensors=%d",
		modelVersionSeed, dmaBurstSetupCycles, float64(workload.BytesPerElem),
		int(mapping.NumDims), int(mapping.NumLevels), int(mapping.NumTensors))))
	return fmt.Sprintf("%x", sum[:8])
})
