package coordinator

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadLastFrame fuzzes the coordinator's reader of worker status
// files. Whatever bytes a torn or foreign file holds, ReadLastFrame
// never panics; and a valid frame appended on its own line after them
// is the frame it returns, whatever came before.
func FuzzReadLastFrame(f *testing.F) {
	var seed bytes.Buffer
	for i := 1; i <= 3; i++ {
		AppendFrame(&seed, StatusFrame{TimeMs: int64(i), Seq: i, Total: 9, RunsPerSec: 1.5})
	}
	f.Add(seed.Bytes(), int64(7), 4, 9, 1, 2.25)
	f.Add([]byte(`{"t_ms":123,"seq":8,"tot`), int64(1), 0, 0, 0, 0.0)
	f.Add(bytes.Repeat([]byte("x"), 5000), int64(-1), -2, 3, 4, -0.5)
	f.Fuzz(func(t *testing.T, junk []byte, ms int64, seq, total, failures int, rate float64) {
		path := filepath.Join(t.TempDir(), "s.jsonl")
		if err := os.WriteFile(path, junk, 0o644); err != nil {
			t.Fatal(err)
		}
		ReadLastFrame(path)

		if ms == 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return // AppendFrame stamps a zero time; JSON has no NaN or Inf
		}
		want := StatusFrame{TimeMs: ms, Seq: seq, Total: total, Failures: failures, RunsPerSec: rate}
		buf := bytes.NewBuffer(append(junk, '\n'))
		if err := AppendFrame(buf, want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := ReadLastFrame(path); !ok || got != want {
			t.Fatalf("ReadLastFrame = %+v, %v; want %+v", got, ok, want)
		}
	})
}
