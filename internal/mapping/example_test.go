package mapping_test

import (
	"fmt"

	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// ExampleFixedOutputStationary maps a convolution with the output-stationary
// schema onto a 256-PE design with 512 B register files and a 512 KB
// scratchpad, and inspects the resulting tiling.
func ExampleFixedOutputStationary() {
	layer := workload.Layer{
		Kind: workload.Conv, Name: "conv",
		K: 64, C: 32, Y: 16, X: 16, R: 3, S: 3, Stride: 1, Mult: 1,
	}
	m := mapping.FixedOutputStationary(layer, 256, 512, 512*1024)

	fmt.Println("PEs used:", m.SpatialPEs())
	fmt.Println("stationary:", m.DRAMStationary, m.NoCStationary)
	fmt.Println("RF fits:", mapping.RFTileBytes(&layer, &m) <= 512)
	fmt.Println("L2 fits:", mapping.L2TileBytes(&layer, &m) <= 512*1024)
	// Output:
	// PEs used: 256
	// stationary: O O
	// RF fits: true
	// L2 fits: true
}

// ExampleDims shows the smooth padding applied to awkward loop extents.
func ExampleDims() {
	layer := workload.Layer{Kind: workload.Gemm, K: 197, C: 768, Y: 1, X: 197, R: 1, S: 1, Stride: 1}
	d := mapping.Dims(layer)
	fmt.Println(d[mapping.DimK], d[mapping.DimC], d[mapping.DimX])
	// Output:
	// 200 768 200
}
