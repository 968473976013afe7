// Package obs is the merge rule of run telemetry.
//
// A run's telemetry is a flat map[string]uint64 that the scenario layer
// builds once, after virtual time stops, from the plain per-run counters
// every layer already keeps (the kernel's event counts, each MAC's
// Counters, the link-state and routing caches, the packet pool, the
// energy meters, the iJTP plugins). Nothing is counted twice and no
// handle sits on the hot path.
//
// Telemetry maps merge by key: a "_hwm" (high-water mark) or "_max" key
// by maximum, every other key by sum. Both merges are commutative and
// associative, so per-run maps fold in any order — per MAC into a run,
// per run into a campaign cell, per cell into a live aggregate — to the
// value one network-wide count would have seen. IsMax names the rule and
// Fold applies it.
package obs

// IsMax reports whether a telemetry key merges by maximum rather than by
// sum: high-water marks ("_hwm") and maxima ("_max").
func IsMax(name string) bool {
	return hasSuffix(name, "_hwm") || hasSuffix(name, "_max")
}

// Fold merges value v of key k into agg: by maximum for IsMax keys, by
// sum otherwise. A key agg does not hold yet takes v as it is. agg must
// be non-nil.
func Fold(agg map[string]float64, k string, v float64) {
	if old, ok := agg[k]; ok && IsMax(k) {
		agg[k] = max(old, v)
	} else {
		agg[k] = old + v
	}
}

// hasSuffix avoids importing strings (the package is dependency-free so
// every layer can import it without cycles or weight).
func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}
