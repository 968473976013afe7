package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// telemetryLine is one record of `jtpsim -telemetry out.jsonl`: one
// completed run with its counter snapshot and its wall time.
type telemetryLine struct {
	Cell        string             `json:"cell"`
	WallSeconds float64            `json:"wall_seconds"`
	Error       string             `json:"error"`
	Counters    map[string]float64 `json:"counters"`
}

// telemetryFold is the traced run's JSONL summed over runs. Counters
// whose name ends in _hwm or _max fold by maximum, as the program's own
// fold does; everything else adds.
type telemetryFold struct {
	Runs     int
	Errors   int
	Counters map[string]float64
	// WallMS is every run's wall time; ByProto groups it by the cell's
	// proto= axis value.
	WallMS  []float64
	ByProto map[string][]float64
}

func readTelemetry(path string) (*telemetryFold, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	fold := &telemetryFold{Counters: map[string]float64{}, ByProto: map[string][]float64{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line telemetryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("telemetry %s line %d: %w", path, fold.Runs+1, err)
		}
		fold.Runs++
		if line.Error != "" {
			fold.Errors++
		}
		for k, v := range line.Counters {
			if strings.HasSuffix(k, "_hwm") || strings.HasSuffix(k, "_max") {
				fold.Counters[k] = math.Max(fold.Counters[k], v)
			} else {
				fold.Counters[k] += v
			}
		}
		ms := line.WallSeconds * 1e3
		fold.WallMS = append(fold.WallMS, ms)
		for _, part := range strings.Split(line.Cell, "/") {
			if proto, ok := strings.CutPrefix(part, "proto="); ok {
				fold.ByProto[proto] = append(fold.ByProto[proto], ms)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry %s: %w", path, err)
	}
	if fold.Runs == 0 {
		return nil, fmt.Errorf("telemetry %s: no runs recorded", path)
	}
	return fold, nil
}

// sumPrefix adds every counter whose name starts with prefix (the cache
// counters carry a per-policy suffix).
func (t *telemetryFold) sumPrefix(prefix string) float64 {
	sum := 0.0
	for k, v := range t.Counters {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of xs by nearest rank on a sorted copy;
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// metrics turns the fold into the T per-layer metrics, and says which
// percentile experiments.run_ms_phi is.
func (t *telemetryFold) metrics() (map[string]float64, *runPercentile) {
	c := t.Counters
	totalWallNS := 0.0
	for _, ms := range t.WallMS {
		totalWallNS += ms * 1e6
	}
	// phi = 1 - 10/n: the highest percentile with ten samples beyond it.
	n := len(t.WallMS)
	phi := math.Max(0, 1-10/float64(n))
	return map[string]float64{
		"sim.events_fired":   c["sim_events_fired"],
		"sim.heap_depth_hwm": c["sim_heap_depth_hwm"],
		"sim.ns_per_event":   ratio(totalWallNS, c["sim_events_fired"]),

		"mac.tx_attempts":      c["mac_tx_attempts"],
		"mac.tx_success_share": ratio(c["mac_tx_success"], c["mac_tx_attempts"]),
		"mac.retries":          c["mac_retries"],
		"mac.drops":            c["mac_drops_queue"] + c["mac_drops_retries"] + c["mac_drops_plugin"],
		"mac.queue_depth_hwm":  c["mac_queue_depth_hwm"],

		"node.link_state_versions":     c["link_state_versions"],
		"node.linkstate_rows_patched":  c["linkstate_rows_patched"],
		"node.linkstate_full_rebuilds": c["linkstate_full_rebuilds"],
		"node.drops_no_route":          c["node_drops_no_route"],

		"routing.bfs_computes":    c["route_bfs_computes"],
		"routing.fills":           c["route_fills"],
		"routing.cache_hit_share": ratio(c["route_cache_hits"], c["route_fills"]),
		"routing.cache_evictions": c["route_cache_evictions"],

		"packet.pool_gets":       c["pool_gets"],
		"packet.pool_miss_share": ratio(c["pool_misses"], c["pool_gets"]),

		"cache.inserts":     t.sumPrefix("cache_inserts_"),
		"cache.hits":        t.sumPrefix("cache_hits_"),
		"cache.evictions":   t.sumPrefix("cache_evictions_"),
		"ijtp.cache_served": c["ijtp_cache_served"],
		"ijtp.energy_drops": c["ijtp_energy_drops"],

		"transport.jtp.run_ms_p50": median(t.ByProto["jtp"]),
		"transport.atp.run_ms_p50": median(t.ByProto["atp"]),
		"transport.tcp.run_ms_p50": median(t.ByProto["tcp"]),

		"energy.tx_nj": c["energy_tx_nj"],
		"energy.rx_nj": c["energy_rx_nj"],

		"experiments.run_ms_p50": median(t.WallMS),
		"experiments.run_ms_phi": quantile(t.WallMS, phi),
	}, &runPercentile{N: n, Phi: phi}
}
