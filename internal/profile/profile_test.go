package profile

import (
	"fmt"
	"testing"

	"sirius/internal/suite"
)

func TestValidate(t *testing.T) {
	if err := validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundIsAboutThree(t *testing.T) {
	// §3: "the maximum speed-up is bound by around 3x".
	mean := MeanSpeedupBound()
	if mean < 2 || mean > 3.5 {
		t.Fatalf("mean stall-free bound %.2f outside [2, 3.5]", mean)
	}
	for _, k := range suite.Kernels {
		b := StallFreeSpeedupBound(Breakdowns[k])
		if b < 1 || b > issueWidth {
			t.Fatalf("%s bound %.2f out of range", k, b)
		}
	}
}

func TestEfficientKernelsHaveSmallerBounds(t *testing.T) {
	// Fig 10: DNN and Regex execute relatively efficiently, so removing
	// stalls helps them the least.
	dnn := StallFreeSpeedupBound(Breakdowns[suite.KernelDNN])
	regex := StallFreeSpeedupBound(Breakdowns[suite.KernelRegex])
	for _, k := range []suite.Kernel{suite.KernelGMM, suite.KernelCRF, suite.KernelStemmer} {
		b := StallFreeSpeedupBound(Breakdowns[k])
		if b <= dnn || b <= regex {
			t.Errorf("%s bound %.2f must exceed DNN %.2f and Regex %.2f", k, b, dnn, regex)
		}
	}
}

func TestZeroIPCEdge(t *testing.T) {
	if StallFreeSpeedupBound(Breakdown{}) != issueWidth {
		t.Fatal("zero IPC must cap at issue width")
	}
}

func TestBoundFarBelowGap(t *testing.T) {
	// The architectural point of Fig 10: the stall-free bound (~3x) is
	// orders of magnitude short of the ~165x scalability gap, so
	// accelerators are required.
	if MeanSpeedupBound() > 165.0/10 {
		t.Fatal("bound must be far below the scalability gap")
	}
}

// validate checks that every kernel has a self-consistent breakdown.
func validate() error {
	for _, k := range suite.Kernels {
		b, ok := Breakdowns[k]
		if !ok {
			return fmt.Errorf("profile: missing breakdown for %s", k)
		}
		sum := b.Retiring + b.FrontEnd + b.BadSpeculation + b.BackEnd
		if sum < 0.99 || sum > 1.01 {
			return fmt.Errorf("profile: %s breakdown sums to %.3f", k, sum)
		}
		if b.IPC <= 0 || b.IPC > issueWidth {
			return fmt.Errorf("profile: %s IPC %.2f out of range", k, b.IPC)
		}
	}
	return nil
}
