package dcsim_test

import (
	"fmt"
	"time"

	"sirius/internal/accel"
	"sirius/internal/dcsim"
)

// An accelerated server's latency win turns into a throughput win under
// queueing: the lower the operating load, the larger the gain (Fig 17).
func ExampleThroughputImprovement() {
	base := 1 * time.Second       // CMP service latency
	acc := 100 * time.Millisecond // accelerated service latency
	for _, rho := range []float64{0.2, 0.8} {
		imp, _ := dcsim.ThroughputImprovement(base, acc, rho)
		fmt.Printf("rho=%.1f: %.0fx\n", rho, imp)
	}
	// Output:
	// rho=0.2: 46x
	// rho=0.8: 12x
}

// The Table 7 TCO model: a datacenter of GPU servers serving the same
// load as a CMP datacenter at 10x the per-server throughput.
func ExampleTCOParams_TCOReduction() {
	p := dcsim.NewDesign().TCO
	red, _ := p.TCOReduction(accel.GPU, 10)
	fmt.Printf("%.1fx cheaper\n", red)
	// Output:
	// 6.7x cheaper
}

// Homogeneous datacenter design selection (Table 8).
func ExampleDesign_ChooseHomogeneous() {
	d := dcsim.NewDesign()
	lat, _ := d.ChooseHomogeneous(dcsim.MinLatency, dcsim.WithFPGA)
	tco, _ := d.ChooseHomogeneous(dcsim.MinTCO, dcsim.WithFPGA)
	fmt.Println("min latency:", lat.Platform)
	fmt.Println("min TCO    :", tco.Platform)
	// Output:
	// min latency: fpga
	// min TCO    : gpu
}
