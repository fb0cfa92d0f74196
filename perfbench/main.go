// Command perfbench is the repository benchmark. It builds one of three
// workloads from a seed, drives it through the public functions
// (cluster.New, apps.Deploy, Deployment.Run, nexus.Pack, nexus.ValidatePlan)
// for a time budget, checks the simulated outputs, and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones from timed runs with
// all profiling off. With -trace 1 the benchmark also starts a traced run
// in a child process and reports per-layer metrics folded from its CPU and
// heap profiles. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload game-steady --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// DefaultSeed is the seed the benchmark's recorded numbers use;
// HeldOutSeed is kept for checking claims made on the default seed.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// tracedChildFlag marks the child process that performs the traced run.
const tracedChildFlag = "traced-child"

func init() {
	// Timed runs have every kind of profiling off. The traced child samples
	// heap allocations finely enough to fold them by layer; the rate must be
	// set before the allocations it should see, so it is set here.
	runtime.MemProfileRate = 0
	for _, a := range os.Args[1:] {
		if strings.TrimLeft(a, "-") == tracedChildFlag {
			runtime.MemProfileRate = heapSampleBytes
		}
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	child    bool
	runID    string
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: game-steady, fleet-surge-observed or plan-10k")
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "host seconds to spend on timed runs")
	fs.IntVar(&o.trace, "trace", 0, "1 = also make a traced run and report per-layer metrics")
	fs.BoolVar(&o.child, tracedChildFlag, false, "internal: perform the traced run of a parent process")
	fs.StringVar(&o.runID, "run-id", "", "internal: run ID the traced child tags its spans with")
	fs.StringVar(&o.outDir, "out", defaultOutDir(), "directory for traced-run profiles and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if o.child {
		return runChild(w, o, stdout)
	}
	return runParent(w, o, stdout, stderr)
}

// defaultOutDir keeps traced-run files in the build directory the run
// script uses, which lies inside the checkout and is ignored by git.
func defaultOutDir() string {
	if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
		return dir
	}
	return ".bench_build/perfbench-trace"
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(w workloadDef, o options, stdout, stderr io.Writer) int {
	deadline := time.Now().Add(runLimit)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, o.trace)
	reps, again, runErr := timedReps(w, o.seed, time.Duration(o.seconds*float64(time.Second)), stdout)
	var t *tracedResult
	if runErr == nil && o.trace == 1 {
		o.runID = fmt.Sprintf("%s-seed%d-%d-%d", w.name, o.seed, time.Now().Unix(), os.Getpid())
		t, runErr = startChild(o, deadline, stderr)
		if runErr == nil && t.Digest != reps[0].out.digest {
			runErr = fmt.Errorf("traced run of seed %d gave digest %s, timed run %s", reps[0].seed, t.Digest, reps[0].out.digest)
		}
	}
	// An operation fails only when the benchmark cannot complete or verify
	// it; a simulated request that misses its SLO is a modelled outcome,
	// reported as bad_pct. A failed check fails every operation of the run.
	res := result{Correct: runErr == nil}
	for _, r := range reps {
		if r.out != nil {
			res.Attempted += r.out.attempted
		}
	}
	if runErr != nil {
		fmt.Fprintln(stdout, "CHECK FAILED:", runErr)
		fmt.Fprintln(stderr, "perfbench:", runErr)
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
	}
	if len(reps) > 0 {
		s := summarize(reps)
		printSummary(stdout, w.name, s)
		switch {
		case o.trace == 0:
			res.Metrics = endToEndMetrics(s)
		case t == nil: // the traced run failed: report zeros, marked incorrect
			res.Metrics = perLayerMetrics(&tracedResult{}, 0)
		default:
			printLayers(stdout, t)
			// The traced run repeats the first rep's seed, as does the
			// determinism rep: compare with those two timed calls.
			res.Metrics = perLayerMetrics(t, (reps[0].call+again.call).Seconds()/2)
		}
	}
	if res.Metrics == nil {
		// A run that could not measure anything prints no result.
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// startChild runs the traced run in a child process of this binary, so
// the heap sampling it needs never touches the timed runs, and waits for it.
func startChild(o options, deadline time.Time, stderr io.Writer) (*tracedResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-"+tracedChildFlag,
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-run-id", o.runID, "-out", o.outDir)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	runErr := cmd.Run()
	copyStderr(stderr, &errOut)
	if runErr != nil {
		return nil, fmt.Errorf("traced run: %w", runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var t tracedResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &t); err != nil {
		return nil, fmt.Errorf("traced run output: %w", err)
	}
	if t.Error != "" {
		return nil, errors.New("traced run: " + t.Error)
	}
	return &t, nil
}

// runLimit bounds a whole run, traced child included, inside the three
// minutes a run may take.
const runLimit = 170 * time.Second

// copyStderr forwards the child's diagnostics, minus the runtime's notice
// that the CPU profile rate was raised before pprof set its default.
func copyStderr(dst io.Writer, src io.Reader) {
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		if !strings.Contains(sc.Text(), "cannot set cpu profile rate") {
			fmt.Fprintln(dst, sc.Text())
		}
	}
}

// rep is one timed run of a workload: fresh setups, one measured call.
type rep struct {
	seed    int64
	setups  []time.Duration
	span    string // the measured call
	call    time.Duration
	allocs  uint64
	bytes   uint64
	peakRSS float64 // MB, during the call
	out     *outcome
}

const (
	// Each rep builds the workload at least setupRounds times and until
	// setupSpend has passed; setup_s is the median over all builds. Only
	// the last build is run.
	setupRounds = 3
	setupSpend  = 30 * time.Millisecond
	// minReps is the fewest timed reps a run makes, whatever its budget.
	// The simulated outputs are those of the first minReps reps, so they are
	// exact for a run seed however fast the host is.
	minReps = 3
)

// repSeeds returns the generator of a run's rep seeds. Reps use different
// workload seeds because the host cost of one simulated request depends on
// the arrival pattern a seed draws: pooling many seeds in a run keeps a
// run's figures steady from one run seed to the next, and the same run
// seed still gives the same inputs.
func repSeeds(seed int64) func() int64 {
	rng := rand.New(rand.NewSource(seed))
	return func() int64 { return rng.Int63n(1 << 31) }
}

// firstRepSeed is the seed of a run's first rep, which the closing
// determinism check and the traced run repeat.
func firstRepSeed(seed int64) int64 { return repSeeds(seed)() }

// timedReps runs reps until the budget is spent, predicting from the reps
// so far whether another fits, then repeats the first rep's seed and
// checks that the repeat produced the same digest. The repeat is returned
// apart: it is not pooled into the run's figures.
func timedReps(w workloadDef, seed int64, budget time.Duration, log io.Writer) (reps []rep, again rep, err error) {
	start := time.Now()
	nextSeed := repSeeds(seed)
	for {
		r, err := timedRep(w, nextSeed())
		if err != nil {
			return reps, again, err
		}
		reps = append(reps, r)
		fmt.Fprintf(log, "rep %d: seed %d setup %.4fs %s %.4fs items %d digest %s\n",
			len(reps), r.seed, median(seconds(r.setups)), r.span, r.call.Seconds(), r.out.items, r.out.digest)
		elapsed := time.Since(start)
		perRep := elapsed / time.Duration(len(reps))
		if len(reps) >= minReps && elapsed+2*perRep > budget {
			break
		}
	}
	if again, err = timedRep(w, reps[0].seed); err != nil {
		return reps, again, err
	}
	if again.out.digest != reps[0].out.digest {
		err = fmt.Errorf("seed %d gave digest %s, then %s: the simulation is not deterministic",
			reps[0].seed, reps[0].out.digest, again.out.digest)
	}
	return reps, again, err
}

func timedRep(w workloadDef, seed int64) (rep, error) {
	r := rep{seed: seed}
	var j job
	var spent time.Duration
	for len(r.setups) < setupRounds || spent < setupSpend {
		j = nil // let the previous build be collected before timing the next
		runtime.GC()
		t0 := time.Now()
		var err error
		j, err = w.build(seed)
		r.setups = append(r.setups, time.Since(t0))
		spent += r.setups[len(r.setups)-1]
		if err != nil {
			return r, fmt.Errorf("setup: %w", err)
		}
	}
	r.span, _ = j.spans()
	// Start each call from the same heap: collected, with freed memory
	// returned to the OS, and the peak-RSS count restarted.
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := j.call()
	r.call = time.Since(t0)
	r.peakRSS = peakRSSMB()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}
	r.allocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.out, err = j.check(false)
	return r, err
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// summary is a run's figures. Host costs pool every timed rep: requests
// per second is all requests over all call time. Simulated outputs average
// the first minReps reps.
type summary struct {
	reps         int
	setupS       float64
	callS        float64 // median call time
	reqPerS      float64
	allocsPerReq float64
	bytesPerReq  float64
	callAllocs   float64 // per call, pooled
	callBytes    float64
	peakRSSMB    float64
	callSpread   float64
	goodput      float64
	badPct       float64
	gpus         float64
	planGPUs     float64
	digest       string // of the first minReps reps, exact for a run seed
}

func summarize(reps []rep) summary {
	var setups, calls, rss []float64
	var items, callS, allocs, bytes float64
	for _, r := range reps {
		setups = append(setups, seconds(r.setups)...)
		calls = append(calls, r.call.Seconds())
		rss = append(rss, r.peakRSS)
		items += float64(r.out.items)
		callS += r.call.Seconds()
		allocs += float64(r.allocs)
		bytes += float64(r.bytes)
	}
	n := float64(len(reps))
	s := summary{
		reps:         len(reps),
		setupS:       median(setups),
		callS:        median(calls),
		reqPerS:      items / callS,
		allocsPerReq: allocs / items,
		bytesPerReq:  bytes / items,
		callAllocs:   allocs / n,
		callBytes:    bytes / n,
		peakRSSMB:    median(rss),
		callSpread:   spread(calls),
	}
	var dg digest
	first := reps[:min(minReps, len(reps))]
	for _, r := range first {
		k := float64(len(first))
		s.goodput += r.out.goodput / k
		s.badPct += r.out.badPct / k
		s.gpus += r.out.gpus / k
		s.planGPUs += float64(r.out.planGPUs) / k
		dg.add(fmt.Sprint("rep", r.seed), r.out.digest)
	}
	s.digest = dg.sum()
	return s
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set, so peakRSSMB then reads the peak since. Without it (kernels before
// 4.0, other systems) the peak is the process's lifetime peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(v, &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of a -trace 0 run, in BENCHMARK.json order.
// Every workload reports every one of them; README.md gives each its
// meaning per workload.
var endToEnd = []metricDef{
	{"req_per_s", "req/s"},
	{"allocs_per_req", "allocs"},
	{"alloc_bytes_per_req", "bytes"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"goodput_rps", "req/s"},
	{"gpus_used", "GPUs"},
}

func endToEndMetrics(s summary) map[string]metric {
	v := map[string]float64{
		"req_per_s":           s.reqPerS,
		"allocs_per_req":      s.allocsPerReq,
		"alloc_bytes_per_req": s.bytesPerReq,
		"peak_rss_mb":         s.peakRSSMB,
		"setup_s":             s.setupS,
		"goodput_rps":         s.goodput,
		"gpus_used":           s.gpus,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// printSummary prints the run's figures under the names the workload
// applies them to, with units.
func printSummary(w io.Writer, workload string, s summary) {
	type row struct {
		name  string
		value float64
		unit  string
	}
	rows := []row{{"setup_s", s.setupS, "s"}, {"peak_rss_mb", s.peakRSSMB, "MB"}}
	if workload == "plan-10k" {
		rows = append(rows,
			row{"plan_s", s.callS, "s"},
			row{"plan_allocs", s.callAllocs, "count"},
			row{"plan_alloc_mb", s.callBytes / (1 << 20), "MB"},
			row{"plan_gpus", s.planGPUs, "GPUs"},
			row{"sessions_per_s", s.reqPerS, "sessions/s"},
		)
	} else {
		rows = append(rows,
			row{"sim_req_per_s", s.reqPerS, "req/s"},
			row{"allocs_per_req", s.allocsPerReq, "allocs"},
			row{"alloc_bytes_per_req", s.bytesPerReq, "bytes"},
			row{"goodput_rps", s.goodput, "req/s"},
			row{"bad_pct", s.badPct, "%"},
			row{"gpus_used", s.gpus, "GPUs"},
			row{"run_s", s.callS, "s"},
		)
	}
	fmt.Fprintf(w, "%d timed reps; call time spread (IQR/median) %.3f; digest %s\n", s.reps, s.callSpread, s.digest)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %16.6g %s\n", r.name, r.value, r.unit)
	}
}

// printLayers prints the traced run's fold.
func printLayers(w io.Writer, t *tracedResult) {
	fmt.Fprintf(w, "traced run %s: %s %.4fs, %d CPU samples, %.1f%% attributed to a named layer\n",
		t.RunID, t.CallSpan, t.CallS, t.CPUSamples, 100*t.Attributed)
	fmt.Fprintf(w, "  %-12s %14s %14s\n", "layer", "self ns/req", "alloc B/req")
	for _, l := range reportedLayers {
		fmt.Fprintf(w, "  %-12s %14.1f %14.1f\n", l, t.SelfNsPerReq[l], t.AllocBytesPerReq[l])
	}
	for _, l := range sortedKeys(t.OtherNs) {
		fmt.Fprintf(w, "  unlisted package %s: %.1f self ns/req\n", l, t.OtherNs[l])
	}
	if len(t.Memclr) > 0 {
		keys := sortedKeys(t.Memclr)
		sort.SliceStable(keys, func(a, b int) bool { return t.Memclr[keys[a]] > t.Memclr[keys[b]] })
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*t.Memclr[k]))
		}
		fmt.Fprintf(w, "  runtime.memclrNoHeapPointers is %.1f%% of CPU, charged to: %s\n",
			100*t.MemclrShare, strings.Join(parts, ", "))
	}
	fmt.Fprintf(w, "  profiles and spans: %s\n", t.Dir)
}
