package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownSubcommandExits2 pins the dispatch contract: a first word
// that is neither a subcommand nor a flag is a usage error naming the
// word, not a silent fall-through to the experiment list — and the
// retired `bench` subcommand points at its replacement.
func TestUnknownSubcommandExits2(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"bench -preset huge -check", `jtpsim: unknown subcommand "bench" (the benchmark is: go run -C bench .)`},
		{"bogus -exp fig9", `jtpsim: unknown subcommand "bogus"`},
	} {
		f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stderr
		os.Stderr = f
		code := run(strings.Fields(tc.args))
		os.Stderr = saved
		f.Close()
		msg, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 || !strings.HasPrefix(string(msg), tc.want) {
			t.Errorf("jtpsim %s: exit %d, stderr %q; want exit 2 and %q", tc.args, code, msg, tc.want)
		}
	}
}
