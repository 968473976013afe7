package experiments

import (
	"testing"
)

// TestCalibrationFig9Mini runs a scaled-down Fig 9 and logs the shape so
// the comparative ordering (JTP < ATP < TCP on energy/bit, JTP highest
// goodput) can be inspected during development and regression-checked.
func TestCalibrationFig9Mini(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	cfg := Fig9Config{
		Sizes:     []int{4, 8},
		Runs:      3,
		Seconds:   900,
		Warmup:    100,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      7,
	}
	fig := Fig9(cfg)
	rep := figureReport(t, fig, Options{})
	t.Logf("\n%s", tablesCSV(fig.Tables(rep)...))

	for _, n := range cfg.Sizes {
		jtp := findCell(t, rep, "proto", string(JTP), "netSize", n)
		atp := findCell(t, rep, "proto", string(ATP), "netSize", n)
		tcp := findCell(t, rep, "proto", string(TCP), "netSize", n)
		if mean(jtp, obsEnergyPerBit) >= mean(tcp, obsEnergyPerBit) {
			t.Errorf("n=%d: jtp energy/bit %.3g >= tcp %.3g (expected jtp cheaper)",
				n, mean(jtp, obsEnergyPerBit), mean(tcp, obsEnergyPerBit))
		}
		if mean(jtp, obsEnergyPerBit) >= mean(atp, obsEnergyPerBit) {
			t.Errorf("n=%d: jtp energy/bit %.3g >= atp %.3g (expected jtp cheaper)",
				n, mean(jtp, obsEnergyPerBit), mean(atp, obsEnergyPerBit))
		}
		if mean(jtp, obsGoodputBps) <= mean(tcp, obsGoodputBps) {
			t.Errorf("n=%d: jtp goodput %.3g <= tcp %.3g (expected jtp higher)",
				n, mean(jtp, obsGoodputBps), mean(tcp, obsGoodputBps))
		}
	}
}
