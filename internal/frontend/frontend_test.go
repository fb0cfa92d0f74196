package frontend

import (
	"math"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

func testProfile() *profiler.Profile {
	return &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: time.Millisecond, Beta: 5 * time.Millisecond, MaxBatch: 32,
		MemBase: 1 << 28, MemPerItem: 1 << 20,
	}
}

func setup(t *testing.T, nBackends int) (*simclock.Clock, map[string]*backend.Backend, *Frontend, *int) {
	t.Helper()
	clock := simclock.New()
	backends := make(map[string]*backend.Backend)
	for i := 0; i < nBackends; i++ {
		id := string(rune('a' + i))
		dev := gpusim.New(clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
		be := backend.New(id, clock, dev, backend.Config{Overlap: true}, nil)
		if err := be.Configure([]backend.Unit{{ID: "u", Profile: testProfile(), TargetBatch: 8}}); err != nil {
			t.Fatal(err)
		}
		backends[id] = be
	}
	dropped := 0
	fe := New(clock, backends, 0, func(req workload.Request, reason backend.Outcome) { dropped++ })
	return clock, backends, fe, &dropped
}

func TestRoutingTableValidate(t *testing.T) {
	bad := []RoutingTable{
		{"s": {}},
		{"s": {{BackendID: "a", UnitID: "u", Weight: 0}}},
		{"s": {{BackendID: "", UnitID: "u", Weight: 1}}},
		{"s": {{BackendID: "a", UnitID: "", Weight: 1}}},
	}
	for i, rt := range bad {
		if rt.Validate() == nil {
			t.Errorf("case %d: invalid table accepted", i)
		}
	}
	good := RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetTableUnknownBackend(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	rt := RoutingTable{"s": {{BackendID: "zz", UnitID: "u", Weight: 1}}}
	if err := fe.SetTable(rt); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestDispatchUnroutable(t *testing.T) {
	clock, _, fe, unroutable := setup(t, 1)
	fe.Dispatch(workload.Request{Session: "ghost", Deadline: time.Second})
	clock.Run()
	if *unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1", *unroutable)
	}
}

func TestDispatchReachesBackend(t *testing.T) {
	clock, backends, fe, _ := setup(t, 1)
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second) // let the model load
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if backends["a"].AvgBatchSize() == 0 {
		t.Fatal("request never executed on backend")
	}
}

func TestWeightedSpread(t *testing.T) {
	clock, backends, fe, _ := setup(t, 2)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 3},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	for i := 0; i < 400; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	// The weight-3 backend should do roughly 3x the GPU work.
	busyA := backends["a"].Device().BusyTime()
	busyB := backends["b"].Device().BusyTime()
	if busyA <= busyB {
		t.Fatalf("weight-3 backend busy %v <= weight-1 backend busy %v", busyA, busyB)
	}
}

func TestSmoothWRRExactProportions(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 3},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		r := fe.state.sessions["s"].pick()
		counts[r.BackendID]++
	}
	if counts["a"] != 300 || counts["b"] != 100 {
		t.Fatalf("WRR counts = %v, want a:300 b:100", counts)
	}
}

func TestObservedRates(t *testing.T) {
	clock, _, fe, _ := setup(t, 1)
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.ObservedRates() // reset window
	for i := 0; i < 50; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.RunUntil(clock.Now() + 5*time.Second)
	rates := fe.ObservedRates()
	if math.Abs(rates["s"]-10) > 0.5 {
		t.Fatalf("observed rate %v, want ~10 r/s", rates["s"])
	}
	// Window reset: immediately asking again gives empty.
	clock.RunUntil(clock.Now() + time.Second)
	rates = fe.ObservedRates()
	if rates["s"] != 0 {
		t.Fatalf("rate after reset = %v, want 0", rates["s"])
	}
}

func TestSessions(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	if err := fe.SetTable(RoutingTable{
		"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	got := fe.Sessions()
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("Sessions = %v", got)
	}
}
