package daydream_test

import (
	"fmt"
	"log"

	"daydream"
)

// The model zoo covers the paper's Table 2 plus a Transformer.
func ExampleModelNames() {
	for _, n := range daydream.ModelNames() {
		fmt.Println(n)
	}
	// Output:
	// bert-base
	// bert-large
	// densenet121
	// gnmt
	// resnet50
	// transformer
	// vgg19
}

// Gbps converts link rates for Topology bandwidth fields.
func ExampleGbps() {
	fmt.Printf("%.0f bytes/s\n", daydream.Gbps(10))
	// Output:
	// 1250000000 bytes/s
}

// Collect profiles one training iteration on the synthetic substrate.
func ExampleCollect() {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tr.Model, tr.Device, tr.Precision, tr.BatchSize)
	// Output:
	// ResNet-50 GeForce RTX 2080 Ti fp32 64
}

// Compare answers a what-if question without mutating the baseline graph.
func ExampleCompare() {
	tr, err := daydream.Collect(daydream.CollectConfig{Model: "resnet50"})
	if err != nil {
		log.Fatal(err)
	}
	g, err := daydream.BuildGraph(tr)
	if err != nil {
		log.Fatal(err)
	}
	base, pred, err := daydream.Compare(g, daydream.OptAMP())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("AMP predicted faster:", pred < base)
	// Output:
	// AMP predicted faster: true
}

// NewTopology describes the clusters of the paper's Figure 8.
func ExampleNewTopology() {
	topo := daydream.NewTopology(4, 2, 10)
	fmt.Println(topo.String(), topo.TotalGPUs())
	// Output:
	// 4x2 8
}
