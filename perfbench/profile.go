package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof profile.proto format that
// runtime/pprof writes (gzipped protobuf), enough to attribute samples
// to packages without shelling out to `go tool pprof`.

// profile is a decoded pprof profile: its value columns and samples,
// each sample's stack as function names, leaf first (inlined frames
// expanded, callee before caller).
type profile struct {
	types   []string
	samples []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// column returns the index of the named value column, or -1.
func (p *profile) column(name string) int {
	for i, t := range p.types {
		if t == name {
			return i
		}
	}
	return -1
}

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	var (
		strs      []string
		typeIdx   []int64
		rawSample [][]byte
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName  = map[uint64]int64{}    // function id -> string index
	)
	err := eachField(data, func(f int, wt int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return eachField(b, func(f int, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(f int, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(b, func(f int, wt int, v uint64, pb []byte) error {
			switch f {
			case 1:
				return eachVarint(wt, v, pb, func(x uint64) { locs = append(locs, x) })
			case 2:
				return eachVarint(wt, v, pb, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		s := profSample{values: vals}
		for _, l := range locs {
			for _, fid := range locLines[l] {
				s.stack = append(s.stack, str(funcName[fid]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks one protobuf message, calling fn with each field
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(field, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed or not.
func eachVarint(wt int, v uint64, packed []byte, fn func(uint64)) error {
	if wt == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf reduces a function name ("emucheck/internal/sim.(*Simulator).Step",
// "main.run.func1") to its package path.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package path to the layer name the metrics use:
// "emucheck/internal/firewall" is "firewall", the root package is
// "emucheck", and this benchmark's own main package is "perfbench".
// Packages outside the program report ok=false.
func layerOf(pkg string) (string, bool) {
	switch {
	case pkg == "main":
		return "perfbench", true
	case pkg == "emucheck":
		return "emucheck", true
	case strings.HasPrefix(pkg, "emucheck/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:], true
	}
	return "", false
}

// byLayer sums one value column per layer. Each sample is charged to
// the first frame, leaf first, that belongs to the program, so time
// and allocations inside the runtime or standard library (mallocgc,
// map growth, sorting) count against the program code that asked for
// them. Samples with no program frame at all — GC workers, the
// scheduler — are charged to "runtime".
func byLayer(p *profile, col int) map[string]int64 {
	out := make(map[string]int64)
	if col < 0 {
		return out
	}
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		layer := "runtime"
		for _, fn := range s.stack {
			if l, ok := layerOf(packageOf(fn)); ok {
				layer = l
				break
			}
		}
		out[layer] += s.values[col]
	}
	return out
}
