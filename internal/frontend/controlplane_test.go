package frontend

import (
	"fmt"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/workload"
)

// churnTable builds a table of n sessions, each routed across every backend.
func churnTable(backends map[string]*backend.Backend, n int) RoutingTable {
	rt := make(RoutingTable, n)
	for i := 0; i < n; i++ {
		var routes []Route
		for beID := range backends {
			routes = append(routes, Route{BackendID: beID, UnitID: "u", Weight: 1})
		}
		rt[fmt.Sprintf("s%02d", i)] = routes
	}
	return rt
}

// backendsView exposes the backend map for table rebuilding in tests.
func (f *Frontend) backendsView() map[string]*backend.Backend { return f.backends }

// TestDispatchAgainstControlPlane interleaves dispatch bursts with delta
// pushes, full resyncs, and backend-death repairs. Every dispatch must be
// accounted for: routed or observed as a drop, never lost or
// double-counted.
func TestDispatchAgainstControlPlane(t *testing.T) {
	const (
		bursts   = 8
		perBurst = 400
		phases   = 6
		sessions = 16
	)
	clock, backends, _, _ := setup(t, 3)
	var drops uint64
	fe := New(clock, backends, 0, func(req workload.Request, reason backend.Outcome) { drops++ })
	clock.RunUntil(5 * time.Second) // model loads
	if err := fe.SetTableGen(churnTable(backends, sessions), 1); err != nil {
		t.Fatal(err)
	}

	var sent uint64
	gen := uint64(1)
	for phase := 0; phase < phases; phase++ {
		for burst := 0; burst < bursts; burst++ {
			// Control-plane churn between bursts: a delta that rewrites
			// half the sessions, then on odd phases a backend repair and a
			// full-table resync.
			switch {
			case burst == 2:
				set := make(map[string][]Route, sessions/2)
				for i := 0; i < sessions/2; i++ {
					set[fmt.Sprintf("s%02d", i)] = []Route{
						{BackendID: "a", UnitID: "u", Weight: 1},
						{BackendID: "b", UnitID: "u", Weight: 2},
					}
				}
				if err := fe.ApplyDelta(TableDelta{FromGen: gen, Gen: gen + 1, Set: set}); err != nil {
					t.Fatal(err)
				}
				gen++
			case burst == 4 && phase%2 == 1:
				fe.RemoveBackend("c")
			case burst == 6 && phase%2 == 1:
				if err := fe.SetTableGen(churnTable(fe.backendsView(), sessions), gen+1); err != nil {
					t.Fatal(err)
				}
				gen++
			}
			now := clock.Now()
			for i := 0; i < perBurst; i++ {
				fe.Dispatch(workload.Request{
					ID: sent, Session: fmt.Sprintf("s%02d", i%sessions),
					Arrival: now, Deadline: now + time.Second,
				})
				sent++
			}
		}
		clock.Run()
	}
	if got := fe.Dispatches() + drops; got != sent {
		t.Fatalf("routed %d + dropped %d != sent %d", fe.Dispatches(), drops, sent)
	}
}
