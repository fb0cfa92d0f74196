package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file decodes the pprof profile format (profile.proto, as written by
// runtime/pprof) far enough to fold samples into layers. The module has no
// dependencies, so the decoder is a few dozen lines of protobuf wire
// format rather than an import of github.com/google/pprof.

// layerNames are the internal packages the benchmark attributes host cost
// to, in data-flow order. Samples whose stack has no nexus/internal frame fold
// to runtimeLayer; frames of internal packages outside this list fold to
// their own package name and count as unattributed.
var layerNames = []string{
	"workload", "frontend", "ring", "backend", "gpusim", "simclock", "metrics",
	"profiler", "cluster", "globalsched", "scheduler", "queryopt", "trace",
	"telemetry", "forensics",
}

const (
	runtimeLayer   = "runtime"
	internalPrefix = "nexus/internal/"
)

// reportedLayers are the layers the per-layer metrics name, runtime last.
var reportedLayers = append(append([]string{}, layerNames...), runtimeLayer)

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []string // sample value names, e.g. "cpu", "alloc_space"
	samples     []sample
	locations   map[uint64][]string // location ID -> function names, innermost first
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a (possibly gzip-compressed) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		typeIdx   [][2]int64 // (type, unit) string indexes
		funcNames = map[uint64]int64{}
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{locations: map[uint64][]string{}}
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, vt)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locations, v, packed)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id = 1
					return eachField(line, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: id = 1, name = 2
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
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
	for _, vt := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(vt[0]))
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locations[id] = names
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes. Fixed-width
// fields, which profile.proto does not use, are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as one
// unpacked value (packed == nil) or as a packed run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// valueIndex returns the position of the named sample value.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no %q sample type in %v", name, p.sampleTypes)
}

// frames returns a sample's function names, innermost first.
func (p *profile) frames(s sample) []string {
	var out []string
	for _, loc := range s.locations {
		out = append(out, p.locations[loc]...)
	}
	return out
}

// layerOf charges a stack (innermost first) to the innermost
// nexus/internal/<pkg> frame, or to the runtime bucket if there is none.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return runtimeLayer
}

// fold sums the named sample value by layer.
func (p *profile) fold(value string) (map[string]int64, error) {
	vi, err := p.valueIndex(value)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[layerOf(p.frames(s))] += s.values[vi]
		}
	}
	return out, nil
}

// leafLayers sums the named value over samples whose innermost frame is
// fn, by the layer each is charged to; it locates a hot runtime function
// (such as memclrNoHeapPointers) in the layer that called it.
func (p *profile) leafLayers(value, fn string) (map[string]int64, error) {
	vi, err := p.valueIndex(value)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		fr := p.frames(s)
		if len(fr) > 0 && fr[0] == fn && vi < len(s.values) {
			out[layerOf(fr)] += s.values[vi]
		}
	}
	return out, nil
}

// attributedShare is the fraction of the folded total charged to a named
// layer (not runtime, not an unlisted internal package).
func attributedShare(folded map[string]int64) float64 {
	var named, total int64
	for layer, v := range folded {
		total += v
		if isLayer(layer) {
			named += v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(named) / float64(total)
}

func isLayer(name string) bool {
	for _, l := range layerNames {
		if l == name {
			return true
		}
	}
	return false
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
