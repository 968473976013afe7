package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// A minimal reader for the pprof profile.proto wire format: just enough
// to charge each CPU sample to a layer. The standard library has no
// public profile parser and the benchmark may import nothing else.

const modulePrefix = "github.com/javelen/jtp/internal/"

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, fmt.Errorf("pprof: varint overflow")
}

// field reads one field: its number, wire type, and either the varint
// value or the length-delimited payload.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return 0, 0, 0, nil, err
		}
		if n > uint64(len(p.b)) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

// repeated appends a repeated integer field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func repeated(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type pprofSample struct {
	locs   []uint64
	values []uint64
}

type pprofProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	functions map[uint64]uint64   // function id -> name string index
	strings   []string
}

func parseProfile(raw []byte) (*pprofProfile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	prof := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s pprofSample
			m := pbuf{data}
			for len(m.b) > 0 {
				n, wire, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeated(s.locs, wire, v, d); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = repeated(s.values, wire, v, d); err != nil {
						return nil, err
					}
				}
			}
			prof.samples = append(prof.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, _, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			prof.locations[id] = funcs
		case 5: // Function
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, _, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			prof.functions[id] = name
		case 6: // string_table
			prof.strings = append(prof.strings, string(data))
		}
	}
	return prof, nil
}

func (p *pprofProfile) funcName(id uint64) string {
	if i := p.functions[id]; i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// packageOf returns the directory under internal/ a function lives in,
// or "" for a function outside the module's internal tree.
func packageOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// layerOfStack charges one sample to the layer of the nearest frame on its
// stack, leaf first, that belongs to a layer — so a map hash, an energy
// meter update or a telemetry counter under mac is MAC's cost. A stack
// with internal/ frames but none of a layer goes to "other", one with no
// internal/ frame at all (GC workers, the scheduler, the CLI's own output
// code) to "runtime". inAlloc reports a stack through runtime.mallocgc.
func (p *pprofProfile) layerOfStack(s pprofSample) (layer string, inAlloc bool) {
	layer = "runtime"
	for _, loc := range s.locs {
		for _, fid := range p.locations[loc] {
			fn := p.funcName(fid)
			if fn == "runtime.mallocgc" {
				inAlloc = true
			}
			pkg := packageOf(fn)
			if pkg == "" {
				continue
			}
			if l := layerOfPackage(pkg); l != "" {
				// Frames further out can only add mallocgc, which sits
				// at the leaf end: the answer is complete.
				return l, inAlloc
			}
			layer = "other"
		}
	}
	return layer, inAlloc
}

// cpuShares returns each layer's share of the profile's CPU time, the
// share of samples that allocate, whoever owns them, and the sample count.
func (p *pprofProfile) cpuShares() (shares map[string]float64, alloc float64, samples int) {
	shares = map[string]float64{}
	total, allocated := 0.0, 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// The CPU profile's last value is cpu nanoseconds; the first is
		// the sample count. Either gives the same shares at a fixed rate.
		w := float64(s.values[len(s.values)-1])
		layer, inAlloc := p.layerOfStack(s)
		shares[layer] += w
		total += w
		if inAlloc {
			allocated += w
		}
		samples++
	}
	if total == 0 {
		return shares, 0, samples
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, allocated / total, samples
}

// profileMetrics reads a -cpuprofile file into the P per-layer metrics.
func profileMetrics(path string) (map[string]float64, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("cpuprofile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpuprofile %s: %w", path, err)
	}
	shares, alloc, samples := prof.cpuShares()
	if samples == 0 {
		return nil, 0, fmt.Errorf("cpuprofile %s: no samples", path)
	}
	out := map[string]float64{"runtime.alloc_cpu_share": alloc}
	for _, layer := range cpuShareLayers {
		out[layer+".cpu_share"] = shares[layer]
	}
	return out, samples, nil
}
