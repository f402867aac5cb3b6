package dcsim

import (
	"fmt"

	"sirius/internal/accel"
)

// TCOParams is the Google-style TCO model of Barroso et al. as
// parameterized by the paper's Table 7.
type TCOParams struct {
	DCDepreciationYears     float64 // 12
	ServerDepreciationYears float64 // 3
	AvgServerUtilization    float64 // 0.45
	ElectricityPerKWh       float64 // $0.067
	DCPricePerWatt          float64 // $10/W (capex)
	DCOpexPerWattMonth      float64 // $0.04/W per month
	ServerOpexFracPerYear   float64 // 5% of capex / year
	BaseServerPriceUSD      float64 // $2,102
	BaseServerPowerW        float64 // 163.6 W
	PUE                     float64 // 1.1
	// FPGAEngineeringUSD amortizes the RTL engineering effort over each
	// FPGA-equipped server. Table 7 itself carries no such line item
	// (default 0), but §5.2.3 argues FPGA engineering cost is the reason
	// GPUs can win on TCO; the Fig 20 harness reports both settings.
	FPGAEngineeringUSD float64
}

// defaultTCOParams reproduces Table 7.
func defaultTCOParams() TCOParams {
	return TCOParams{
		DCDepreciationYears:     12,
		ServerDepreciationYears: 3,
		AvgServerUtilization:    0.45,
		ElectricityPerKWh:       0.067,
		DCPricePerWatt:          10,
		DCOpexPerWattMonth:      0.04,
		ServerOpexFracPerYear:   0.05,
		BaseServerPriceUSD:      2102,
		BaseServerPowerW:        163.6,
		PUE:                     1.1,
	}
}

// ServerConfig describes one server build-out.
type ServerConfig struct {
	PriceUSD float64 // total server price including accelerator
	PowerW   float64 // provisioned power including accelerator
}

// ServerFor returns the server configuration for a platform: the Table 7
// baseline host plus the platform's accelerator card (Table 6). CMP and
// Baseline are the bare host.
func (p TCOParams) ServerFor(plat accel.Platform) ServerConfig {
	cfg := ServerConfig{PriceUSD: p.BaseServerPriceUSD, PowerW: p.BaseServerPowerW}
	switch plat {
	case accel.GPU, accel.Phi, accel.FPGA:
		spec := accel.Specs[plat]
		cfg.PriceUSD += spec.CostUSD
		cfg.PowerW += spec.TDPWatts
		if plat == accel.FPGA {
			cfg.PriceUSD += p.FPGAEngineeringUSD
		}
	}
	return cfg
}

// MonthlyServerTCO returns the monthly total cost of ownership of one
// server: amortized datacenter capex, datacenter opex, amortized server
// capex, server opex and energy.
func (p TCOParams) MonthlyServerTCO(cfg ServerConfig) float64 {
	dcCapex := p.DCPricePerWatt * cfg.PowerW / (p.DCDepreciationYears * 12)
	dcOpex := p.DCOpexPerWattMonth * cfg.PowerW
	serverCapex := cfg.PriceUSD / (p.ServerDepreciationYears * 12)
	serverOpex := cfg.PriceUSD * p.ServerOpexFracPerYear / 12
	const hoursPerMonth = 730
	// Table 7's model: the average draw is linear in utilization.
	avgPowerKW := cfg.PowerW * p.AvgServerUtilization * p.PUE / 1000
	energy := avgPowerKW * hoursPerMonth * p.ElectricityPerKWh
	return dcCapex + dcOpex + serverCapex + serverOpex + energy
}

// RelativeDCTCO returns the datacenter TCO for serving a fixed aggregate
// load on the given platform, normalized to the CMP-only datacenter
// (Fig 18's metric): fewer servers are needed in proportion to the
// platform's service speedup over CMP, and each costs its own TCO.
func (p TCOParams) RelativeDCTCO(plat accel.Platform, speedupOverCMP float64) (float64, error) {
	if speedupOverCMP <= 0 {
		return 0, fmt.Errorf("dcsim: non-positive speedup %v", speedupOverCMP)
	}
	per := p.MonthlyServerTCO(p.ServerFor(plat))
	base := p.MonthlyServerTCO(p.ServerFor(accel.CMP))
	return (per / base) / speedupOverCMP, nil
}

// TCOReduction is the inverse of RelativeDCTCO: how many times cheaper
// the accelerated datacenter is.
func (p TCOParams) TCOReduction(plat accel.Platform, speedupOverCMP float64) (float64, error) {
	rel, err := p.RelativeDCTCO(plat, speedupOverCMP)
	if err != nil {
		return 0, err
	}
	return 1 / rel, nil
}
