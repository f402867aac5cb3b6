package dcsim

import (
	"testing"

	"sirius/internal/accel"
)

func TestEngineeringCrossoverExists(t *testing.T) {
	d := NewDesign()
	eng, err := d.EngineeringCrossover(250, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// With hardware-only costs FPGA wins; a finite engineering cost flips
	// the winner to GPU (the paper's §5.2.3 narrative). The crossover
	// should be in the low thousands of dollars per server.
	if eng <= 0 || eng > 10000 {
		t.Fatalf("crossover at $%.0f, expected (0, 10000]", eng)
	}
	// Verify both sides of the crossover.
	below := d
	below.TCO.FPGAEngineeringUSD = 0
	_, gpuTCO, _ := below.AverageClassMetrics(accel.GPU)
	_, fpgaTCO, _ := below.AverageClassMetrics(accel.FPGA)
	if gpuTCO > fpgaTCO {
		t.Fatalf("at $0 FPGA must win TCO (gpu %.2f fpga %.2f)", gpuTCO, fpgaTCO)
	}
	above := d
	above.TCO.FPGAEngineeringUSD = eng
	_, gpuTCO, _ = above.AverageClassMetrics(accel.GPU)
	_, fpgaTCO, _ = above.AverageClassMetrics(accel.FPGA)
	if gpuTCO <= fpgaTCO {
		t.Fatalf("at $%.0f GPU must win TCO (gpu %.2f fpga %.2f)", eng, gpuTCO, fpgaTCO)
	}
}

func TestAmdahlSweepMonotone(t *testing.T) {
	d := NewDesign()
	fracs := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
	pts := d.AmdahlSweep(accel.ServiceQA, accel.FPGA, fracs)
	if len(pts) != len(fracs) {
		t.Fatalf("points: %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup >= pts[i-1].Speedup {
			t.Fatalf("speedup must fall as the remainder grows: %+v", pts)
		}
	}
	// At a tiny remainder the kernel speedups dominate (>10x); at 80%
	// remainder Amdahl caps the service gain near 1/0.8.
	if pts[0].Speedup < 10 {
		t.Fatalf("small-remainder speedup %.1f too low", pts[0].Speedup)
	}
	if pts[len(pts)-1].Speedup > 2 {
		t.Fatalf("large-remainder speedup %.1f too high", pts[len(pts)-1].Speedup)
	}
}

func TestModeAgreement(t *testing.T) {
	d := NewDesign()
	agree, total, detail := d.ModeAgreement()
	if total != 9 {
		t.Fatalf("cells: %d", total)
	}
	// The design conclusions must be robust to the speedup model: at
	// least 7 of 9 cells agree between calibrated and analytic modes.
	if agree < 7 {
		t.Fatalf("only %d/%d cells agree between modes:\n%s", agree, total, detail)
	}
	if detail == "" {
		t.Fatal("detail output")
	}
}
