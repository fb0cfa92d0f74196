package frontend

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nexus/internal/workload"
)

func TestApplyDeltaSetRemove(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	rt := RoutingTable{
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	err := fe.ApplyDelta(TableDelta{
		FromGen: 1, Gen: 2,
		Set:    map[string][]Route{"s3": {{BackendID: "b", UnitID: "u", Weight: 1}}},
		Remove: []string{"s2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fe.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", fe.Generation())
	}
	got := fe.Sessions()
	if len(got) != 2 || got[0] != "s1" || got[1] != "s3" {
		t.Fatalf("sessions after delta = %v, want [s1 s3]", got)
	}
}

// TestApplyDeltaCarriesCounts extends the SetTable/RemoveBackend carry-over
// contract to deltas: in-window request counts survive both a route change
// (Set) and a removal (residual window), so ObservedRates never loses
// traffic across an incremental push.
func TestApplyDeltaCarriesCounts(t *testing.T) {
	clock, _, fe, _ := setup(t, 2)
	rt := RoutingTable{
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.ObservedRates() // reset window
	for i := 0; i < 40; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s1", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: "s2", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	// Mid-window delta: s1's routes change, s2 is removed entirely.
	err := fe.ApplyDelta(TableDelta{
		FromGen: 1, Gen: 2,
		Set:    map[string][]Route{"s1": {{BackendID: "b", UnitID: "u", Weight: 1}}},
		Remove: []string{"s2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fe.Dispatch(workload.Request{ID: uint64(200 + i), Session: "s1", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.RunUntil(clock.Now() + 5*time.Second)
	rates := fe.ObservedRates()
	if got := rates["s1"] * 5; got < 49.9 || got > 50.1 {
		t.Fatalf("s1 window count = %.1f, want 50 (carried across Set)", got)
	}
	if got := rates["s2"] * 5; got < 39.9 || got > 40.1 {
		t.Fatalf("s2 window count = %.1f, want 40 (residual after Remove)", got)
	}
}

// TestApplyDeltaPreservesUntouchedWRR: a session the delta does not mention
// keeps its dispatch state object, so its smooth-WRR replica split continues
// exactly where it left off.
func TestApplyDeltaPreservesUntouchedWRR(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	rt := RoutingTable{
		"s1": {
			{BackendID: "a", UnitID: "u", Weight: 3},
			{BackendID: "b", UnitID: "u", Weight: 1},
		},
		"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	before := fe.state.sessions["s1"]
	counts := map[string]int{}
	for i := 0; i < 2; i++ { // mid-cycle: accumulator holds credit
		counts[before.pick().BackendID]++
	}
	err := fe.ApplyDelta(TableDelta{
		FromGen: 1, Gen: 2,
		Set: map[string][]Route{"s2": {{BackendID: "b", UnitID: "u", Weight: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := fe.state.sessions["s1"]
	if after != before {
		t.Fatal("untouched session's dispatch state was rebuilt by the delta")
	}
	for i := 0; i < 398; i++ {
		counts[after.pick().BackendID]++
	}
	if counts["a"] != 300 || counts["b"] != 100 {
		t.Fatalf("WRR counts after delta = %v, want a:300 b:100", counts)
	}
}

func TestApplyDeltaStaleGeneration(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	rt := RoutingTable{"s1": {{BackendID: "a", UnitID: "u", Weight: 1}}}
	if err := fe.SetTableGen(rt, 5); err != nil {
		t.Fatal(err)
	}
	err := fe.ApplyDelta(TableDelta{
		FromGen: 4, Gen: 6,
		Set: map[string][]Route{"s2": {{BackendID: "a", UnitID: "u", Weight: 1}}},
	})
	if !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("stale delta error = %v, want ErrStaleDelta", err)
	}
	if fe.Generation() != 5 || len(fe.Sessions()) != 1 {
		t.Fatal("rejected delta mutated routing state")
	}
}

// TestRemoveBackendInvalidatesDeltas: a local failure repair moves the
// frontend off the control plane's generation sequence, so the next delta is
// detectably stale and a SetTableGen resync restores delta routing.
func TestRemoveBackendInvalidatesDeltas(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	rt := RoutingTable{"s1": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	if n := fe.RemoveBackend("b"); n != 1 {
		t.Fatalf("RemoveBackend repaired %d sessions, want 1", n)
	}
	// The control plane still believes generation 1; its delta must bounce.
	err := fe.ApplyDelta(TableDelta{
		FromGen: 1, Gen: 2,
		Set: map[string][]Route{"s2": {{BackendID: "a", UnitID: "u", Weight: 1}}},
	})
	if !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("delta after local repair = %v, want ErrStaleDelta", err)
	}
	// Resync: a stamped full table re-aligns generations, deltas flow again.
	resync := RoutingTable{"s1": {{BackendID: "a", UnitID: "u", Weight: 1}}}
	if err := fe.SetTableGen(resync, 2); err != nil {
		t.Fatal(err)
	}
	err = fe.ApplyDelta(TableDelta{
		FromGen: 2, Gen: 3,
		Set: map[string][]Route{"s2": {{BackendID: "a", UnitID: "u", Weight: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fe.Generation() != 3 {
		t.Fatalf("generation after resync+delta = %d, want 3", fe.Generation())
	}
}

func TestApplyDeltaRejectsBadRoutes(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	rt := RoutingTable{"s1": {{BackendID: "a", UnitID: "u", Weight: 1}}}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	bad := []TableDelta{
		{FromGen: 1, Gen: 2, Set: map[string][]Route{"s2": {{BackendID: "zz", UnitID: "u", Weight: 1}}}},
		{FromGen: 1, Gen: 2, Set: map[string][]Route{"s2": {{BackendID: "a", UnitID: "u", Weight: 0}}}},
		{FromGen: 1, Gen: 2, Set: map[string][]Route{"s2": {}}},
	}
	for i, d := range bad {
		if err := fe.ApplyDelta(d); err == nil {
			t.Errorf("case %d: invalid delta accepted", i)
		}
	}
	if fe.Generation() != 1 || len(fe.Sessions()) != 1 {
		t.Fatal("rejected delta mutated routing state")
	}
}

// TestDispatchDuringDelta interleaves dispatches with delta pushes that
// flip one session's routes and churn another in and out, with requests
// still in flight across every swap.
func TestDispatchDuringDelta(t *testing.T) {
	clock, _, fe, _ := setup(t, 2)
	rt := RoutingTable{
		"s0": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	const (
		deltas     = 500
		dispatches = 20000
	)
	// Control plane: flip s1's routes back and forth and churn a third
	// session in and out, with a burst of dispatches after every delta.
	gen := uint64(1)
	id := uint64(0)
	for i := 0; i < deltas; i++ {
		be := "a"
		if i%2 == 0 {
			be = "b"
		}
		d := TableDelta{
			FromGen: gen, Gen: gen + 1,
			Set: map[string][]Route{
				"s1": {{BackendID: be, UnitID: "u", Weight: 1}},
				"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
			},
		}
		if i%3 == 0 {
			d.Set = map[string][]Route{"s1": {{BackendID: be, UnitID: "u", Weight: 1}}}
			d.Remove = []string{"s2"}
		}
		if err := fe.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		gen++
		for j := 0; j < dispatches/deltas; j++ {
			fe.Dispatch(workload.Request{
				ID: id, Session: fmt.Sprintf("s%d", id%2),
				Arrival: clock.Now(), Deadline: clock.Now() + time.Hour,
			})
			id++
		}
	}
	clock.Run()
	// Every dispatch was routed or counted: the two live sessions' window
	// counts must sum to all dispatched requests (none dropped: both target
	// sessions stay routable throughout).
	clock.RunUntil(clock.Now() + time.Second)
	rates := fe.ObservedRates()
	var total float64
	for _, r := range rates {
		total += r
	}
	if fe.Dispatches() != dispatches {
		t.Fatalf("dispatches = %d, want %d", fe.Dispatches(), dispatches)
	}
	if total <= 0 {
		t.Fatal("no observed traffic after interleaved deltas")
	}
}
