package scheduler

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nexus/internal/profiler"
)

// benchWorkload builds a production-scale scheduling input: nModels linear
// batching profiles and nSessions sessions with zipf-ish rates and mixed
// SLOs, the shape §7.4's large-scale experiments stress.
func benchWorkload(nModels, nSessions int) ([]Session, map[string]*profiler.Profile) {
	rng := rand.New(rand.NewSource(42))
	profiles := make(map[string]*profiler.Profile, nModels)
	for m := 0; m < nModels; m++ {
		id := fmt.Sprintf("m%03d", m)
		p := &profiler.Profile{
			ModelID: id, GPU: profiler.GTX1080Ti,
			Alpha:    time.Duration(rng.Intn(1500)+200) * time.Microsecond,
			Beta:     time.Duration(rng.Intn(8)+2) * time.Millisecond,
			MaxBatch: 64,
			MemBase:  1 << 28, MemPerItem: 1 << 20,
		}
		if err := p.Validate(); err != nil {
			panic(err)
		}
		profiles[id] = p
	}
	sessions := make([]Session, nSessions)
	for s := range sessions {
		rate := 400 / float64(1+s%37) // heavy head, long tail
		sessions[s] = Session{
			ID:      fmt.Sprintf("s%04d", s),
			ModelID: fmt.Sprintf("m%03d", s%nModels),
			SLO:     time.Duration(50+25*(s%8)) * time.Millisecond,
			Rate:    rate,
		}
	}
	return sessions, profiles
}

// BenchmarkPackLargeScale measures one squishy-bin-packing epoch over a
// thousand-session cluster — the control-plane hot path that the memoized
// batch-latency tables accelerate.
func BenchmarkPackLargeScale(b *testing.B) {
	sessions, profiles := benchWorkload(40, 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := Pack(sessions, profiles, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if plan.GPUCount() == 0 {
			b.Fatal("empty plan")
		}
	}
}

// bench10kWorkload sizes a workload so the resulting plan lands at ~10k GPU
// nodes — the scale regime the north star targets. Rates are inflated over
// benchWorkload's so saturated whole-GPU allocations carry most of the GPU
// count while the 6k-session residue keeps the merge phase (the quadratic
// part of the planner) realistic.
func bench10kWorkload() ([]Session, map[string]*profiler.Profile) {
	sessions, profiles := benchWorkload(40, 6000)
	for i := range sessions {
		sessions[i].Rate *= 40
	}
	return sessions, profiles
}

// BenchmarkPack10kGPU measures the epoch planner at 10k-GPU scale: cold
// is one from-scratch plan (the planner's first plan is Pack's), and
// incremental-nochange is a hysteresis epoch whose unchanged workload
// skips re-planning.
func BenchmarkPack10kGPU(b *testing.B) {
	sessions, profiles := bench10kWorkload()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p Planner
			res, err := p.Plan(sessions, profiles, Config{}, PlanOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Plan.GPUCount() < 9000 {
				b.Fatalf("plan has %d GPUs, want ~10k", res.Plan.GPUCount())
			}
		}
	})
	b.Run("incremental-nochange", func(b *testing.B) {
		var p Planner
		opts := PlanOpts{Hysteresis: 0.05}
		res, err := p.Plan(sessions, profiles, Config{}, opts)
		if err != nil {
			b.Fatal(err)
		}
		p.Commit(res)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := p.Plan(sessions, profiles, Config{}, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Skipped {
				b.Fatalf("no-change epoch re-planned: %+v", res.Stats)
			}
		}
	})
}
