package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"nexus"
)

// pb is a tiny protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (e *pb) varint(x uint64) {
	for x >= 0x80 {
		e.b = append(e.b, byte(x)|0x80)
		x >>= 7
	}
	e.b = append(e.b, byte(x))
}

func (e *pb) uint(field int, x uint64) { e.varint(uint64(field)<<3 | 0); e.varint(x) }

func (e *pb) bytes(field int, b []byte) {
	e.varint(uint64(field)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *pb) msg(field int, fn func(*pb)) {
	var inner pb
	fn(&inner)
	e.bytes(field, inner.b)
}

// packed writes a repeated varint field in packed form.
func (e *pb) packed(field int, xs []uint64) {
	var inner pb
	for _, x := range xs {
		inner.varint(x)
	}
	e.bytes(field, inner.b)
}

// synthProfile builds a profile with sample types (samples, cpu) and one
// sample per stack. Each stack lists locations leaf first; a location is
// one or more function names, innermost (inlined) first. Odd-numbered
// samples use unpacked repeated fields, even-numbered packed ones, as the
// pprof writer does for short and long lists.
func synthProfile(stacks [][][]string, counts []int64) []byte {
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var e pb
	for _, t := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		t := t
		e.msg(1, func(m *pb) { m.uint(1, str(t[0])); m.uint(2, str(t[1])) })
	}
	funcs := map[string]uint64{}
	var locID uint64
	for si, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			id := locID
			var fids []uint64
			for _, fn := range loc {
				if _, ok := funcs[fn]; !ok {
					funcs[fn] = uint64(len(funcs) + 1)
					fid, name := funcs[fn], str(fn)
					e.msg(5, func(m *pb) { m.uint(1, fid); m.uint(2, name) })
				}
				fids = append(fids, funcs[fn])
			}
			e.msg(4, func(m *pb) {
				m.uint(1, id)
				for _, f := range fids {
					f := f
					m.msg(4, func(l *pb) { l.uint(1, f); l.uint(2, 10) })
				}
			})
			locs = append(locs, id)
		}
		vals := []uint64{uint64(counts[si]), uint64(counts[si]) * 1e6}
		e.msg(2, func(m *pb) {
			if si%2 == 0 {
				m.packed(1, locs)
				m.packed(2, vals)
			} else {
				for _, l := range locs {
					m.uint(1, l)
				}
				for _, v := range vals {
					m.uint(2, v)
				}
			}
		})
	}
	for _, s := range strs {
		e.bytes(6, []byte(s))
	}
	return e.b
}

func TestFoldSyntheticProfile(t *testing.T) {
	stacks := [][][]string{
		// The Recycle hotspot: runtime leaf, charged to the caller's layer.
		{{"runtime.memclrNoHeapPointers"}, {"nexus/internal/backend.(*Queue).Recycle"},
			{"nexus/internal/cluster.(*Deployment).Run"}, {"main.main"}},
		// An inlined frame: the innermost function of the location wins.
		{{"nexus/internal/simclock.(*Clock).advance", "nexus/internal/cluster.(*Deployment).Run"}, {"main.main"}},
		// GC work with no package frame.
		{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}, {"runtime.goexit"}},
		// The root package and the benchmark itself are not layers.
		{{"sort.insertionSort"}, {"nexus/internal/scheduler.Pack"}, {"nexus.Pack"}, {"main.main"}},
		// An internal package outside the layer list.
		{{"nexus/internal/apps.Deploy"}, {"main.main"}},
		// A closure in a layer.
		{{"runtime.mallocgc"}, {"nexus/internal/cluster.New.func3"}},
	}
	counts := []int64{50, 20, 10, 5, 3, 12}
	raw := synthProfile(stacks, counts)

	// The decoder accepts the gzip framing runtime/pprof writes.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"plain": raw, "gzip": gz.Bytes()} {
		p, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := p.fold("samples")
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{"backend": 50, "simclock": 20, "runtime": 10, "scheduler": 5, "apps": 3, "cluster": 12}
		if len(got) != len(want) {
			t.Fatalf("%s: fold = %v, want %v", name, got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s: fold[%s] = %d, want %d (all %v)", name, k, got[k], v, got)
			}
		}
		cpu, err := p.fold("cpu")
		if err != nil {
			t.Fatal(err)
		}
		if cpu["backend"] != 50e6 {
			t.Errorf("cpu fold[backend] = %d, want 50e6", cpu["backend"])
		}
		memclr, err := p.leafLayers("samples", "runtime.memclrNoHeapPointers")
		if err != nil {
			t.Fatal(err)
		}
		if len(memclr) != 1 || memclr["backend"] != 50 {
			t.Errorf("memclr charged to %v, want backend only", memclr)
		}
		// Named layers: 50+20+5+12 of 100; runtime and apps are not.
		if share := attributedShare(got); math.Abs(share-0.87) > 1e-12 {
			t.Errorf("attributed share = %v, want 0.87", share)
		}
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"nexus/internal/backend.(*Queue).Recycle"}, "backend"},
		{[]string{"runtime.memmove", "nexus/internal/trace.(*Tracer).Record"}, "trace"},
		{[]string{"nexus/internal/scheduler.pack[...]"}, "scheduler"},
		{[]string{"nexus.Pack", "main.main"}, runtimeLayer},
		{nil, runtimeLayer},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestFoldRealHeapProfile round-trips a profile runtime/pprof wrote:
// allocations made inside nexus.Pack fold to the scheduler layer.
func TestFoldRealHeapProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	sessions := []nexus.Session{
		{ID: "a", ModelID: "m", SLO: 100 * time.Millisecond, Rate: 500},
		{ID: "b", ModelID: "m", SLO: 200 * time.Millisecond, Rate: 50},
	}
	profiles := map[string]*nexus.Profile{"m": {
		ModelID: "m", GPU: nexus.GTX1080Ti, Alpha: time.Millisecond, Beta: 5 * time.Millisecond,
		MaxBatch: 32, MemBase: 1 << 28, MemPerItem: 1 << 20,
	}}
	for i := 0; i < 50; i++ {
		if _, err := nexus.Pack(sessions, profiles, nexus.SchedConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.fold("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if got["scheduler"] <= 0 {
		t.Errorf("no allocation folded to scheduler: %v", got)
	}
}
