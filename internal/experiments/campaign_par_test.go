package experiments

import (
	"os"
	"strconv"
	"testing"

	"github.com/javelen/jtp/internal/campaign"
)

// campaignPars returns the worker counts the invariance tests exercise.
// CI's par-matrix smoke pins a worker count per invocation via
// JTPSIM_PAR: 1 runs the serial assembly alone under -race, n > 1
// compares n workers against the serial baseline, so every pinned run
// still asserts invariance. The default covers 1 vs 4 in one run.
func campaignPars(t *testing.T) []int {
	if v := os.Getenv("JTPSIM_PAR"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("JTPSIM_PAR=%q is not a positive integer", v)
		}
		if n == 1 {
			return []int{1}
		}
		return []int{1, n}
	}
	return []int{1, 4}
}

// TestFig10WorkerCountInvarianceCampaign runs the refactored
// driver-based assembly under the campaign engine at each worker count
// and requires identical aggregates: the transport-layer refactor must
// not introduce any worker-count-dependent state.
func TestFig10WorkerCountInvarianceCampaign(t *testing.T) {
	cfg := Fig10Config{
		Sizes: []int{8}, Flows: 2, Runs: 2,
		Seconds: 200, Warmup: 30,
		Protocols: []Protocol{JTP, TCP, ATP}, Seed: 77,
	}
	requireWorkerCountInvariance(t, Fig10(cfg), obsEnergyPerBit, obsGoodputBps)
}

// requireWorkerCountInvariance executes the figure at each worker count
// of campaignPars and requires every named observable of every cell to
// equal the first count's bit for bit.
func requireWorkerCountInvariance(t *testing.T, f Figure, observables ...string) {
	t.Helper()
	var base *campaign.Report
	for _, par := range campaignPars(t) {
		got := figureReport(t, f, workers(par))
		if base == nil {
			base = got
			continue
		}
		if len(got.Cells) != len(base.Cells) {
			t.Fatalf("par=%d: %d cells, want %d", par, len(got.Cells), len(base.Cells))
		}
		for i, w := range base.Cells {
			for _, o := range observables {
				requireRunningEqual(t, w.Cell.Key()+" "+o, got.Cells[i].Running(o), w.Running(o))
			}
		}
	}
}

// TestFig11WorkerCountInvarianceCampaign covers the mobility path
// (random topology + random waypoint + random endpoints), the heaviest
// consumer of engine-seeded randomness.
func TestFig11WorkerCountInvarianceCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("mobility campaign")
	}
	cfg := Fig11Config{
		Nodes: 10, Speeds: []float64{1}, Flows: 2, Runs: 2,
		Seconds: 150, Warmup: 30,
		Protocols: []Protocol{JTP, TCP}, Seed: 55,
	}
	requireWorkerCountInvariance(t, Fig11(cfg),
		obsEnergyPerBit, obsGoodputBps, obsSourceRtxPerKB, obsCacheHitsPerKB)
}
