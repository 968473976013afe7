package main

// Shared -cpuprofile/-memprofile support for every jtpsim mode, so future
// perf work can profile figure reproductions and batch campaigns without
// editing code:
//
//	jtpsim -exp fig9 -cpuprofile fig9.cpu.prof
//	jtpsim batch -matrix sweep.json -memprofile sweep.mem.prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpuProfilePath string
	memProfilePath string
	cpuProfileFile *os.File
)

// addProfileFlags registers the profiling flags on a FlagSet (subcommand
// modes) — the default flag.CommandLine registers via flag directly.
func addProfileFlags(fs *flag.FlagSet) {
	fs.StringVar(&cpuProfilePath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&memProfilePath, "memprofile", "", "write an allocation profile to this file on exit")
}

// startProfiles begins CPU profiling when requested. Call stopProfiles
// (deferred) to flush both profiles.
func startProfiles() error {
	if cpuProfilePath == "" {
		return nil
	}
	f, err := os.Create(cpuProfilePath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	cpuProfileFile = f
	return nil
}

// stopProfiles flushes the CPU profile and writes the heap profile.
func stopProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
		cpuProfileFile = nil
		fmt.Fprintf(os.Stderr, "jtpsim: wrote CPU profile %s\n", cpuProfilePath)
	}
	if memProfilePath == "" {
		return
	}
	f, err := os.Create(memProfilePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // settle live heap before the snapshot
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "jtpsim: memprofile: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "jtpsim: wrote allocation profile %s\n", memProfilePath)
}
