package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

const (
	// cpuProfileHz asks for more CPU samples than pprof's default 100 Hz.
	// Kernels that check CPU timers only at the scheduler tick deliver
	// fewer, each still weighted 1/cpuProfileHz, so the fold uses samples
	// only for shares and scales them by the CPU time getrusage measures.
	cpuProfileHz = 1000
	// heapSampleBytes is the traced child's heap sampling interval.
	heapSampleBytes = 16 << 10
	memclrFunc      = "runtime.memclrNoHeapPointers"
)

// tracedResult is what the traced child reports to its parent.
type tracedResult struct {
	RunID            string             `json:"run_id"`
	Dir              string             `json:"dir"`
	CallSpan         string             `json:"call_span"`
	CallS            float64            `json:"call_s"`
	CPUSamples       int64              `json:"cpu_samples"`
	Attributed       float64            `json:"attributed"`
	SelfNsPerReq     map[string]float64 `json:"self_ns_per_req"`
	AllocBytesPerReq map[string]float64 `json:"alloc_bytes_per_req"`
	Items            float64            `json:"items"` // the per-request denominator
	OtherNs          map[string]float64 `json:"other_ns_per_req"`
	MemclrShare      float64            `json:"memclr_share"`
	Memclr           map[string]float64 `json:"memclr_by_layer"`
	Counters         map[string]float64 `json:"counters"`
	Digest           string             `json:"digest"`
	Error            string             `json:"error,omitempty"`
}

// span is one profiled call of the traced run.
type span struct {
	RunID   string `json:"run_id"`
	Name    string `json:"span"`
	StartNs int64  `json:"start_ns"` // since the traced run began
	WallNs  int64  `json:"wall_ns"`
	CPUNs   int64  `json:"cpu_ns"` // process CPU time, all threads
	Profile string `json:"cpu_profile"`
}

// runChild performs the traced run and prints its result as one JSON line.
func runChild(w workloadDef, o options, stdout io.Writer) int {
	t, err := tracedRun(w, o)
	if err != nil {
		t = &tracedResult{RunID: o.runID, Error: err.Error()}
	}
	if err := json.NewEncoder(stdout).Encode(t); err != nil {
		return 1
	}
	return 0
}

// tracer profiles each public call of a traced run as its own span: a CPU
// profile started and stopped around the call, which runs under pprof
// labels naming the run and the span. Profiles and spans.json land in dir.
type tracer struct {
	runID string
	dir   string
	start time.Time
	spans []span
}

func (tr *tracer) profile(name string, fn func() error) (*profile, span, error) {
	var buf bytes.Buffer
	runtime.GC()
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, span{}, err
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	var err error
	pprof.Do(context.Background(), pprof.Labels("run_id", tr.runID, "span", name), func(context.Context) {
		err = fn()
	})
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	pprof.StopCPUProfile()
	sp := span{
		RunID: tr.runID, Name: name, StartNs: t0.Sub(tr.start).Nanoseconds(),
		WallNs: wall.Nanoseconds(), CPUNs: cpu.Nanoseconds(), Profile: name + ".cpu.pb.gz",
	}
	tr.spans = append(tr.spans, sp)
	if werr := os.WriteFile(filepath.Join(tr.dir, sp.Profile), buf.Bytes(), 0o644); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return nil, sp, fmt.Errorf("%s: %w", name, err)
	}
	p, err := parseProfile(buf.Bytes())
	return p, sp, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapFold snapshots the cumulative allocation profile, saves it, and
// folds allocated bytes by layer.
func (tr *tracer) heapFold(name string) (map[string]int64, error) {
	runtime.GC() // the profile is current as of the last completed GC
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tr.dir, name+".heap.pb.gz"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return p.fold("alloc_space")
}

func tracedRun(w workloadDef, o options) (*tracedResult, error) {
	tr := &tracer{runID: o.runID, dir: filepath.Join(o.outDir, o.runID), start: time.Now()}
	if err := os.MkdirAll(tr.dir, 0o755); err != nil {
		return nil, err
	}
	var j job
	if _, _, err := tr.profile("setup", func() (err error) {
		j, err = w.build(firstRepSeed(o.seed))
		return err
	}); err != nil {
		return nil, err
	}
	callSpan, checkSpan := j.spans()
	heapBefore, err := tr.heapFold("before-" + callSpan)
	if err != nil {
		return nil, err
	}
	cpu, call, err := tr.profile(callSpan, j.call)
	if err != nil {
		return nil, err
	}
	heapAfter, err := tr.heapFold("after-" + callSpan)
	if err != nil {
		return nil, err
	}
	var out *outcome
	if _, _, err := tr.profile(checkSpan, func() (err error) {
		out, err = j.check(true)
		return err
	}); err != nil {
		return nil, err
	}
	spans, err := json.MarshalIndent(tr.spans, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tr.dir, "spans.json"), spans, 0o644); err != nil {
		return nil, err
	}

	samples, err := cpu.fold("samples")
	if err != nil {
		return nil, err
	}
	memclr, err := cpu.leafLayers("samples", memclrFunc)
	if err != nil {
		return nil, err
	}
	items := float64(out.items)
	t := &tracedResult{
		RunID: o.runID, Dir: tr.dir, CallSpan: callSpan,
		CallS:            time.Duration(call.WallNs).Seconds(),
		Attributed:       attributedShare(samples),
		SelfNsPerReq:     map[string]float64{},
		AllocBytesPerReq: map[string]float64{},
		Items:            items,
		OtherNs:          map[string]float64{},
		Memclr:           map[string]float64{},
		Counters:         out.counters,
		Digest:           out.digest,
	}
	for _, n := range samples {
		t.CPUSamples += n
	}
	// Each layer's CPU time is its share of the samples times the CPU time
	// the call used.
	for layer, n := range samples {
		ns := float64(call.CPUNs) * float64(n) / float64(t.CPUSamples)
		if layer == runtimeLayer || isLayer(layer) {
			t.SelfNsPerReq[layer] = ns / items
		} else {
			t.OtherNs[layer] = ns / items
		}
	}
	for layer, b := range heapAfter {
		if d := b - heapBefore[layer]; d > 0 {
			t.AllocBytesPerReq[layer] = float64(d) / items
		}
	}
	var memclrN int64
	for _, n := range memclr {
		memclrN += n
	}
	for layer, n := range memclr {
		t.Memclr[layer] = float64(n) / float64(memclrN)
	}
	if t.CPUSamples > 0 {
		t.MemclrShare = float64(memclrN) / float64(t.CPUSamples)
	}
	return t, nil
}

// counterDefs are the simulated per-layer counters. They are exact for a
// seed and zero on a workload that does not exercise the layer.
var counterDefs = []metricDef{
	{"simclock.events_per_req", "events"},
	{"workload.arrivals", "count"},
	{"frontend.unroutable", "count"},
	{"backend.early_drops", "count"},
	{"backend.late", "count"},
	{"backend.reconfig_lost", "count"},
	{"backend.useful_ratio", "ratio"},
	{"gpusim.busy_frac", "ratio"},
	{"globalsched.epochs", "count"},
	{"globalsched.sessions_moved", "count"},
	{"globalsched.nodes_added", "count"},
	{"trace.dispatch_ms_p50", "sim_ms"},
	{"trace.dispatch_ms_p99", "sim_ms"},
	{"trace.queue_ms_p50", "sim_ms"},
	{"trace.queue_ms_p99", "sim_ms"},
	{"trace.gpu_ms_p50", "sim_ms"},
	{"trace.gpu_ms_p99", "sim_ms"},
	{"trace.total_ms_p50", "sim_ms"},
	{"trace.total_ms_p99", "sim_ms"},
}

// perLayer lists the metrics of a -trace 1 run, in BENCHMARK.json order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range reportedLayers {
		defs = append(defs, metricDef{l + ".self_ns_per_req", "ns"}, metricDef{l + ".alloc_bytes_per_req", "bytes"})
	}
	defs = append(defs,
		metricDef{"scheduler.self_s", "s"},
		metricDef{"scheduler.alloc_mb", "MB"},
		metricDef{"runtime.self_s", "s"},
	)
	defs = append(defs, counterDefs...)
	return append(defs,
		metricDef{"fold.attributed_pct", "%"},
		metricDef{"trace_overhead_pct", "%"},
	)
}

// perLayerMetrics reports the traced run; timedCallS is the timed call
// time of the same seed, against which the tracing overhead is measured.
func perLayerMetrics(t *tracedResult, timedCallS float64) map[string]metric {
	v := map[string]float64{
		"scheduler.self_s":    t.SelfNsPerReq["scheduler"] * t.Items / 1e9,
		"scheduler.alloc_mb":  t.AllocBytesPerReq["scheduler"] * t.Items / (1 << 20),
		"runtime.self_s":      t.SelfNsPerReq[runtimeLayer] * t.Items / 1e9,
		"fold.attributed_pct": 100 * t.Attributed,
	}
	if timedCallS > 0 {
		v["trace_overhead_pct"] = 100 * (t.CallS - timedCallS) / timedCallS
	}
	for l, x := range t.SelfNsPerReq {
		v[l+".self_ns_per_req"] = x
	}
	for l, x := range t.AllocBytesPerReq {
		v[l+".alloc_bytes_per_req"] = x
	}
	for k, x := range t.Counters {
		v[k] = x
	}
	out := map[string]metric{}
	for _, m := range perLayer() {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
