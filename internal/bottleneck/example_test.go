package bottleneck_test

import (
	"fmt"

	"xdse/internal/bottleneck"
)

// ExampleAnalyze builds the paper's Fig. 8-style latency tree and runs the
// bottleneck analysis a DSE would perform before its next acquisition.
func ExampleAnalyze() {
	latency := bottleneck.Max("latency",
		bottleneck.NewLeaf("T_comp", 244).WithParams("PEs"),
		bottleneck.NewLeaf("T_noc", 259).WithParams("noc_width"),
		bottleneck.Add("T_dma",
			bottleneck.NewLeaf("T_dma_A", 700).WithParams("L2_size"),
			bottleneck.NewLeaf("T_dma_B", 300).WithParams("offchip_BW"),
		),
	)

	for _, bn := range bottleneck.Analyze(latency, 2) {
		leaf := bn.Critical[len(bn.Critical)-1]
		fmt.Printf("%s: %.1f%% of cost, scale by %.2fx via %v (critical: %s)\n",
			bn.Factor.Name, bn.Contribution*100, bn.Scaling, bn.Params, leaf.Name)
	}
	// Output:
	// T_dma: 100.0% of cost, scale by 3.86x via [L2_size] (critical: T_dma_A)
	// T_noc: 25.9% of cost, scale by 1.00x via [noc_width] (critical: T_noc)
}
