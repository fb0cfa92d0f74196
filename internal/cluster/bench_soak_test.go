package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/frontend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

// Soak geometry: one million sessions placed across a 64-node cluster,
// installed through sharded control-plane delta pushes and then driven one
// request each through the dispatch path.
const (
	soakSessions = 1 << 20
	soakBackends = 64
	soakUnits    = 16 // execution units per backend; sessions share them
	soakPlanners = 8  // parallel delta-building control-plane shards
	soakWave     = 1 << 16
)

func soakProfile() *profiler.Profile {
	p := &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 500 * time.Microsecond, Beta: 5 * time.Millisecond,
		MaxBatch: 64, PreprocCPU: 2 * time.Millisecond, PostprocCPU: 500 * time.Microsecond,
		MemBase: 256 << 20, MemPerItem: 1 << 20,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// soakSession maps session i onto its unit: backends round-robin first, so
// consecutive sessions land on distinct nodes.
func soakRoute(i int) (be, unit int) {
	return i % soakBackends, (i / soakBackends) % soakUnits
}

// BenchmarkSoakMillionSession soaks the full dispatch plane at
// control-plane scale. Each iteration builds a fresh 64-backend cluster,
// installs 2^20 sessions through generation-tracked TableDeltas — one
// shard per parallel planner, pushed in sequence like a sharded control
// plane's epoch output — and then routes one request per session through
// Dispatch in waves, draining the simulation clock between waves. Every request must complete (served or
// policy-dropped); anything lost fails the benchmark.
func BenchmarkSoakMillionSession(b *testing.B) {
	prof := soakProfile()

	// Session names and per-shard deltas reference the same route layout;
	// names are hoisted out of the timed region (string formatting is not
	// the system under test).
	names := make([]string, soakSessions)
	for i := range names {
		names[i] = fmt.Sprintf("s%07d", i)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		clock := simclock.New()
		completed := 0
		onDone := func(req backend.Request, outcome backend.Outcome, at time.Duration) { completed++ }

		backends := make(map[string]*backend.Backend, soakBackends)
		units := make([]backend.Unit, soakUnits)
		for u := range units {
			units[u] = backend.Unit{ID: fmt.Sprintf("u%02d", u), Profile: prof, TargetBatch: 32}
		}
		for n := 0; n < soakBackends; n++ {
			beID := fmt.Sprintf("b%02d", n)
			dev := gpusim.New(clock, "gpu-"+beID, profiler.GTX1080Ti, gpusim.Exclusive)
			be := backend.New(beID, clock, dev, backend.Config{Overlap: true, Discipline: backend.RoundRobin}, onDone)
			if err := be.Configure(units); err != nil {
				b.Fatal(err)
			}
			backends[beID] = be
		}
		fe := frontend.New(clock, backends, 500*time.Microsecond, nil)
		clock.RunUntil(30 * time.Second) // model loads

		// Control plane: planners build their session shards in parallel,
		// then push them as one generation-tracked delta each.
		deltas := make([]frontend.TableDelta, soakPlanners)
		var wg sync.WaitGroup
		for p := 0; p < soakPlanners; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				lo := p * soakSessions / soakPlanners
				hi := (p + 1) * soakSessions / soakPlanners
				set := make(map[string][]frontend.Route, hi-lo)
				for i := lo; i < hi; i++ {
					bn, un := soakRoute(i)
					set[names[i]] = []frontend.Route{{
						BackendID: fmt.Sprintf("b%02d", bn),
						UnitID:    fmt.Sprintf("u%02d", un),
						Weight:    1,
					}}
				}
				deltas[p] = frontend.TableDelta{FromGen: uint64(p), Gen: uint64(p + 1), Set: set}
			}(p)
		}
		wg.Wait()
		for _, d := range deltas {
			if err := fe.ApplyDelta(d); err != nil {
				b.Fatal(err)
			}
		}

		// Data plane: one request per session, dispatched from the clock
		// goroutine a wave at a time, clock drained after each wave.
		for base := 0; base < soakSessions; base += soakWave {
			end := base + soakWave
			if end > soakSessions {
				end = soakSessions
			}
			now := clock.Now()
			for i := base; i < end; i++ {
				fe.Dispatch(workload.Request{
					ID: uint64(i), Session: names[i],
					Arrival: now, Deadline: now + 10*time.Second,
				})
			}
			clock.Run()
		}

		if got := fe.Dispatches(); got != soakSessions {
			b.Fatalf("dispatched %d of %d", got, soakSessions)
		}
		if completed != soakSessions {
			b.Fatalf("completed %d of %d requests", completed, soakSessions)
		}
	}
}
