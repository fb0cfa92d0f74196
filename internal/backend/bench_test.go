package backend

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// BenchmarkDispatchHotPath measures the node data plane in steady state —
// enqueue, early-drop admission, ring-buffer batch assembly, simulated
// execution, completion — replaying one second of Uniform rate-2000
// overload per iteration. Setup (clock, device, model load) and the
// arrival schedule are hoisted out of the timed region and the pools are
// warmed first, so the numbers isolate the per-request path the ring
// queue, batch/run arenas, and memoized latency tables optimize; at
// steady state it must not allocate at all.
func BenchmarkDispatchHotPath(b *testing.B) {
	clock := simclock.New()
	dev := gpusim.New(clock, "gpu0", profiler.GTX1080Ti, gpusim.Exclusive)
	served := 0
	be := New("b0", clock, dev, Config{Overlap: true, Discipline: RoundRobin},
		func(req Request, outcome Outcome, at time.Duration) { served++ })
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 16}}); err != nil {
		b.Fatal(err)
	}
	clock.RunUntil(2 * time.Second) // model load

	wave := newWave(b, clock, be, "u", []string{"s"}, 2000)
	// Warm every pool (event free list, wheel buckets, batch and run
	// arenas) so the timed region measures steady state.
	wave()
	wave()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	if served == 0 {
		b.Fatal("no requests served")
	}
}

// BenchmarkDispatchHotPathTraced replays the same steady-state wave with
// the flight recorder's span sources attached — per-request Execute records
// from the OnBatch hook and Complete/Drop records in the completion sink,
// each copied once into its ring slot by Record — so the
// delta over BenchmarkDispatchHotPath is the full cost of always-on span
// capture (dominated by the 136-byte event writes themselves). The CI gate
// pins it to its recorded baseline and to zero allocations: capture cost
// regressions surface here, not in production tail latency.
func BenchmarkDispatchHotPathTraced(b *testing.B) {
	clock := simclock.New()
	dev := gpusim.New(clock, "gpu0", profiler.GTX1080Ti, gpusim.Exclusive)
	tr := trace.New(1 << 14)
	served := 0
	onBatch := func(backendID, unitID string, batch []Request, inc uint64, gpuTime time.Duration) {
		at := clock.Now()
		for i := range batch {
			tr.Record(&trace.Event{At: at, Kind: trace.Execute,
				ReqID: batch[i].ID, Session: batch[i].Session,
				Backend: backendID, Unit: unitID,
				Batch: len(batch), Dur: gpuTime, Inc: inc})
		}
	}
	done := func(req Request, outcome Outcome, at time.Duration) {
		served++
		kind := trace.Complete
		cause := ""
		if outcome != OK {
			kind = trace.Drop
			cause = outcome.String()
		}
		tr.Record(&trace.Event{At: at, Kind: kind, ReqID: req.ID,
			Session: req.Session, Dur: at - req.Arrival, Cause: cause})
	}
	be := New("b0", clock, dev,
		Config{Overlap: true, Discipline: RoundRobin, OnBatch: onBatch}, done)
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 16}}); err != nil {
		b.Fatal(err)
	}
	clock.RunUntil(2 * time.Second) // model load

	wave := newWave(b, clock, be, "u", []string{"s"}, 2000)
	wave()
	wave()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	if served == 0 {
		b.Fatal("no requests served")
	}
	if tr.Total() == 0 {
		b.Fatal("no events traced")
	}
}

// BenchmarkPrefixGroupHotPath replays the dispatch wave against one
// 20-member prefix group (§6.3) whose profiles memoize 1024 batch sizes, so
// it sees the per-batch costs BenchmarkDispatchHotPath's plain unit cannot:
// recycling a batch slice primed to the profile's maximum batch, and
// counting the members present to charge one suffix launch each. Both must
// scale with the executed batch, not the maximum, and allocate nothing once
// warm.
func BenchmarkPrefixGroupHotPath(b *testing.B) {
	clock := simclock.New()
	dev := gpusim.New(clock, "gpu0", profiler.GTX1080Ti, gpusim.Exclusive)
	served := 0
	const members = 20
	sessions := make([]string, members)
	table := workload.NewSessions()
	for i := range sessions {
		sessions[i] = fmt.Sprintf("m%d", i)
		table.Intern(sessions[i])
	}
	be := New("b0", clock, dev, Config{Overlap: true, Discipline: RoundRobin, Sessions: table},
		func(req Request, outcome Outcome, at time.Duration) { served++ })
	base := &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 50 * time.Microsecond, Beta: time.Millisecond,
		MaxBatch: 1024, PreprocCPU: 100 * time.Microsecond, PostprocCPU: 20 * time.Microsecond,
		MemBase: 1 << 28, MemPerItem: 1 << 20,
	}
	comb, err := profiler.CombinedProfile(base, 0.1, members)
	if err != nil {
		b.Fatal(err)
	}
	if comb.MemoBatches() < 1024 {
		b.Fatalf("combined profile memoizes %d batch sizes, want >= 1024", comb.MemoBatches())
	}
	pre, suf := base.Split(0.9)
	if err := be.Configure([]Unit{{ID: "g", Profile: comb, TargetBatch: 32,
		Prefix: &pre, Suffix: &suf}}); err != nil {
		b.Fatal(err)
	}
	clock.RunUntil(2 * time.Second) // model load

	wave := newWave(b, clock, be, "g", sessions, 8000)
	wave()
	wave()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	if served == 0 {
		b.Fatal("no requests served")
	}
}

// newWave precomputes one second of Uniform arrivals at rate (seed 7), each
// from a session drawn from sessions, and returns a function that replays
// that second into unitID and runs the clock dry. A self-rescheduling pump
// walks the schedule, so a replay keeps exactly one generator event live
// and reuses the closure across iterations.
func newWave(b *testing.B, clock *simclock.Clock, be *Backend, unitID string, sessions []string, rate float64) func() {
	rng := rand.New(rand.NewSource(7))
	pick := rand.New(rand.NewSource(11))
	proc := workload.Uniform{Rate: rate}
	var (
		offsets []time.Duration
		sess    []int32 // index into sessions, which is the session index
	)
	for t := proc.Interarrival(0, rng); t < time.Second; t += proc.Interarrival(t, rng) {
		offsets = append(offsets, t)
		sess = append(sess, int32(pick.Intn(len(sessions))))
	}

	const slo = 100 * time.Millisecond
	slot := be.Slot(unitID)
	var (
		start time.Duration
		idx   int
		id    uint64
		pump  func()
	)
	pump = func() {
		now := clock.Now()
		if err := be.Enqueue(slot, Request{ID: id, Session: sessions[sess[idx]], SessionIndex: sess[idx],
			Arrival: now, Deadline: now + slo}); err != nil {
			b.Fatal(err)
		}
		id++
		idx++
		if idx < len(offsets) {
			clock.At(start+offsets[idx], pump)
		}
	}
	return func() {
		idx = 0
		start = clock.Now()
		clock.At(start+offsets[0], pump)
		clock.Run()
	}
}
