package campaign

import (
	"math"
	"testing"
)

// FormatValue renders axis values for cell keys, table cells and
// CSV/JSON emission — and now telemetry column formatting — so each
// coercion path is pinned down here.
func TestFormatValue(t *testing.T) {
	cases := []struct {
		name string
		in   any
		want string
	}{
		{"string", "jtp", "jtp"},
		{"empty string", "", ""},
		{"float64 integral", float64(2), "2"},
		{"float64 fractional", 0.1, "0.1"},
		{"float64 shortest round-trip", 1.0 / 3.0, "0.3333333333333333"},
		{"float64 large uses exponent", 1e21, "1e+21"},
		{"float64 negative", -2.5, "-2.5"},
		{"float64 NaN", math.NaN(), "NaN"},
		{"int", 42, "42"},
		{"int negative", -7, "-7"},
		{"int64", int64(1 << 40), "1099511627776"},
		{"bool true", true, "true"},
		{"bool false", false, "false"},
		{"nil falls back to %v", nil, "<nil>"},
		{"other type falls back to %v", uint8(3), "3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := FormatValue(tc.in); got != tc.want {
				t.Fatalf("FormatValue(%#v) = %q, want %q", tc.in, got, tc.want)
			}
		})
	}
}

func TestCellFloatIntCoercions(t *testing.T) {
	cell := Cell{
		names:  []string{"f", "i", "i64", "s", "b", "fs", "is"},
		values: []any{2.5, 3, int64(1 << 33), "nope", true, "0.1", "42"},
	}
	floatCases := []struct {
		name string
		axis string
		want float64
	}{
		{"float64 passes through", "f", 2.5},
		{"int widens", "i", 3},
		{"int64 widens", "i64", float64(int64(1) << 33)},
		{"string is not numeric", "s", 0},
		{"numeric string parses", "fs", 0.1},
		{"bool is not numeric", "b", 0},
		{"absent axis", "missing", 0},
	}
	for _, tc := range floatCases {
		t.Run("Float/"+tc.name, func(t *testing.T) {
			if got := cell.Float(tc.axis); got != tc.want {
				t.Fatalf("Float(%q) = %g, want %g", tc.axis, got, tc.want)
			}
		})
	}
	intCases := []struct {
		name string
		axis string
		want int
	}{
		{"float64 truncates", "f", 2},
		{"int round-trips", "i", 3},
		{"int64 converts", "i64", 1 << 33},
		{"string is not numeric", "s", 0},
		{"numeric string parses", "is", 42},
		{"absent axis", "missing", 0},
	}
	for _, tc := range intCases {
		t.Run("Int/"+tc.name, func(t *testing.T) {
			if got := cell.Int(tc.axis); got != tc.want {
				t.Fatalf("Int(%q) = %d, want %d", tc.axis, got, tc.want)
			}
		})
	}
}
