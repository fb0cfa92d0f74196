package frontend

import (
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

func TestDispatchAfterTableSwap(t *testing.T) {
	clock, backends, fe, unroutable := setup(t, 2)
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.Dispatch(workload.Request{ID: 1, Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	// Swap the table to backend b; subsequent requests go there.
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "b", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	fe.Dispatch(workload.Request{ID: 2, Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if backends["a"].Device().BusyTime() == 0 || backends["b"].Device().BusyTime() == 0 {
		t.Fatal("both backends should have served one request across the swap")
	}
	if *unroutable != 0 {
		t.Fatalf("unroutable = %d", *unroutable)
	}
}

func TestDispatchToRemovedUnitCountsReconfigDrop(t *testing.T) {
	clock, backends, fe, dropped := setup(t, 1)
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	// Remove the unit between routing and enqueue: the in-flight dispatch
	// must surface as a reconfiguration drop rather than vanish. (With no
	// surviving replica, even the retry path has nowhere to send it.)
	if err := backends["a"].Configure(nil); err != nil {
		t.Fatal(err)
	}
	fe.Dispatch(workload.Request{ID: 1, Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if *dropped != 1 {
		t.Fatalf("dropped = %d, want 1", *dropped)
	}
}

func TestObservedRatesMultipleSessions(t *testing.T) {
	clock, _, fe, _ := setup(t, 1)
	if err := fe.SetTable(RoutingTable{
		"x": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"y": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.ObservedRates()
	for i := 0; i < 20; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "x", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	for i := 0; i < 10; i++ {
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: "y", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.RunUntil(clock.Now() + 2*time.Second)
	rates := fe.ObservedRates()
	if rates["x"] != 10 || rates["y"] != 5 {
		t.Fatalf("rates = %v, want x:10 y:5", rates)
	}
}

func TestNegativeNetDelayUsesDefault(t *testing.T) {
	_, _, _, _ = setup(t, 1) // ensure helpers compile
	fe := New(nil, nil, -1, nil)
	if fe.NetDelay() != DefaultNetDelay {
		t.Fatalf("NetDelay = %v, want default", fe.NetDelay())
	}
}

// TestZeroAllocSteadyState asserts the end-to-end per-request path —
// admission, snapshot routing, WRR pick, network-delay send, enqueue,
// batch assembly, execution, completion — allocates nothing once the
// arenas and free lists are warm.
func TestZeroAllocSteadyState(t *testing.T) {
	// A fast profile keeps every scheduled horizon (preprocess, batch
	// execution, postprocess) inside the timer wheel's level-0 span, so
	// the wheel reaches its steady capacity during warmup instead of
	// touching fresh far-horizon buckets every step.
	prof := &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 50 * time.Microsecond, Beta: 100 * time.Microsecond, MaxBatch: 8,
		PreprocCPU: 20 * time.Microsecond, PostprocCPU: 10 * time.Microsecond,
		MemBase: 1 << 28, MemPerItem: 1 << 20,
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	backends := make(map[string]*backend.Backend)
	for _, id := range []string{"a", "b"} {
		dev := gpusim.New(clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
		be := backend.New(id, clock, dev, backend.Config{Overlap: true}, nil)
		if err := be.Configure([]backend.Unit{{ID: "u", Profile: prof, TargetBatch: 8}}); err != nil {
			t.Fatal(err)
		}
		backends[id] = be
	}
	fe := New(clock, backends, 0, nil)
	clock.RunUntil(5 * time.Second)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 2},
	}}); err != nil {
		t.Fatal(err)
	}

	var id uint64
	step := func() {
		now := clock.Now()
		for i := 0; i < 16; i++ {
			fe.Dispatch(workload.Request{ID: id, Session: "s", Arrival: now, Deadline: now + time.Second})
			id++
		}
		clock.Run()
	}
	// Warm every pool: event free list, wheel buckets, send arena, queue
	// rings, batch and run arenas.
	for i := 0; i < 50; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady-state dispatch allocates %.1f times per 16-request step, want 0", avg)
	}

	// With the flight recorder's span source attached the same path must
	// stay allocation-free: Route and Enqueue events land in the tracer's
	// preallocated ring, so always-on capture never costs the hot path an
	// allocation.
	fe.SetTracer(trace.New(1 << 14))
	for i := 0; i < 50; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("traced steady-state dispatch allocates %.1f times per 16-request step, want 0", avg)
	}
}
