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

// profileFlags registers the profiling flags (figures, batch and gen).
func (o *options) profileFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file on exit")
}

// startProfiles begins CPU profiling when requested. Call stopProfiles
// (deferred) to flush both profiles.
func (o *options) startProfiles() error {
	if o.cpuProfile == "" {
		return nil
	}
	f, err := os.Create(o.cpuProfile)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	o.cpuFile = f
	return nil
}

// stopProfiles flushes the CPU profile and writes the heap profile.
func (o *options) stopProfiles() {
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		o.cpuFile.Close()
		o.cpuFile = nil
		fmt.Fprintf(os.Stderr, "jtpsim: wrote CPU profile %s\n", o.cpuProfile)
	}
	if o.memProfile == "" {
		return
	}
	f, err := os.Create(o.memProfile)
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
	fmt.Fprintf(os.Stderr, "jtpsim: wrote allocation profile %s\n", o.memProfile)
}
