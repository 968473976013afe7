package experiments

import (
	"github.com/javelen/jtp/internal/core"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/stats"
)

// Fig5Result holds the reception-rate time series for the two competing
// flows of the fairness experiment (§4.2), with and without source
// back-off for locally recovered packets.
type Fig5Result struct {
	Backoff bool
	// ShortTerm holds the binned reception rate (packets/s) per flow.
	ShortTerm [2]*stats.Series
	// LongTerm holds the running average reception rate per flow.
	LongTerm [2]*stats.Series
	// MeanRate is each flow's overall mean reception rate.
	MeanRate [2]float64
}

// Fig5Config parameterizes the back-off fairness experiment: two
// competing flows on a linear chain; flow 1 never requests
// retransmissions (UDP-like), flow 2 requires full reliability and so
// exercises the in-network recovery that back-off compensates for.
type Fig5Config struct {
	Nodes   int
	Seconds float64
	// BinSeconds is the short-term averaging window.
	BinSeconds float64
	Seed       int64
}

// Fig5Defaults returns the experiment configuration.
func Fig5Defaults() Fig5Config {
	return Fig5Config{Nodes: 6, Seconds: 1800, BinSeconds: 20, Seed: 51}
}

// Fig5 runs the experiment twice — with and without back-off — and
// returns both traces (paper Fig 5 left/right columns).
func Fig5(cfg Fig5Config) []*Fig5Result {
	var out []*Fig5Result
	for _, backoff := range []bool{true, false} {
		res := &Fig5Result{Backoff: backoff}
		var recs [2]*stats.Series
		must(RunWithHooks(Scenario{
			Name:    "fig5",
			Proto:   JTP,
			Topo:    Linear,
			Nodes:   cfg.Nodes,
			Seconds: cfg.Seconds,
			Seed:    cfg.Seed,
			Flows: []FlowSpec{
				{ // Flow 1: UDP-like, no retransmission requests.
					Src: 0, Dst: cfg.Nodes - 1, StartAt: 100,
					LossTolerance:          0.10,
					DisableRetransmissions: true,
					DisableBackoff:         !backoff,
				},
				{ // Flow 2: fully reliable, exercising local recovery.
					Src: 0, Dst: cfg.Nodes - 1, StartAt: 130,
					LossTolerance:  0,
					DisableBackoff: !backoff,
				},
			},
		}, Hooks{
			JTPConn: func(i int, conn *core.Connection) {
				recs[i] = conn.Receiver.Reception()
			},
		}))
		for i := 0; i < 2; i++ {
			series := recs[i]
			res.ShortTerm[i] = rateBin(series, cfg.BinSeconds)
			res.LongTerm[i] = cumulativeRate(series)
			if n := res.ShortTerm[i].Len(); n > 0 {
				res.MeanRate[i] = res.ShortTerm[i].Mean()
			}
		}
		out = append(out, res)
	}
	return out
}

// rateBin converts a per-delivery series (V=1 per packet) into a
// packets/s rate series with the given bin width.
func rateBin(s *stats.Series, width float64) *stats.Series {
	out := &stats.Series{Name: s.Name}
	if s.Len() == 0 || width <= 0 {
		return out
	}
	start := s.Samples[0].T
	edge := start + width
	count := 0
	for _, x := range s.Samples {
		for x.T >= edge {
			out.Samples = append(out.Samples, stats.Sample{T: edge - width/2, V: float64(count) / width})
			count = 0
			edge += width
		}
		count++
	}
	out.Samples = append(out.Samples, stats.Sample{T: edge - width/2, V: float64(count) / width})
	return out
}

// cumulativeRate converts a per-delivery series into the long-term
// average rate at each delivery instant.
func cumulativeRate(s *stats.Series) *stats.Series {
	out := &stats.Series{Name: s.Name}
	if s.Len() == 0 {
		return out
	}
	t0 := s.Samples[0].T
	for i, x := range s.Samples {
		el := x.T - t0
		if el <= 0 {
			el = 1e-9
		}
		out.Samples = append(out.Samples, stats.Sample{T: x.T, V: float64(i+1) / el})
	}
	return out
}

// Fig5Summary summarizes both runs: mean reception rates and the
// fairness gap (flow2/flow1 long-term ratio). Without back-off, flow 2's
// effective share exceeds its fair allocation.
func Fig5Summary(results []*Fig5Result) *metrics.Table {
	t := metrics.NewTable(
		"Fig 5: reception rate of two competing flows, with/without source back-off (pps)",
		"backoff", "flow1(pps)", "flow2(pps)", "flow2/flow1")
	for _, r := range results {
		ratio := 0.0
		if r.MeanRate[0] > 0 {
			ratio = r.MeanRate[1] / r.MeanRate[0]
		}
		t.AddRow(r.Backoff, r.MeanRate[0], r.MeanRate[1], ratio)
	}
	return t
}
