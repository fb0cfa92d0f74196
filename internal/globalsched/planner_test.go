package globalsched

import (
	"fmt"
	"testing"
	"time"

	"math/rand"

	"nexus/internal/model"
	"nexus/internal/scheduler"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// addMixedSessions registers a mixed workload of n sessions over three
// models.
func addMixedSessions(t *testing.T, e *env, n int) {
	t.Helper()
	models := []string{model.ResNet50, model.Darknet53, model.GoogLeNetCar}
	for i := 0; i < n; i++ {
		e.sessions.Intern(fmt.Sprintf("s%02d", i))
		if err := e.sched.AddSession(SessionSpec{
			ID:           fmt.Sprintf("s%02d", i),
			ModelID:      models[i%len(models)],
			SLO:          time.Duration(150+50*(i%3)) * time.Millisecond,
			ExpectedRate: 40 + 20*float64(i%4),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedApplyKeepsPlannerBaseline: a plan whose apply fails must not
// become the planner's baseline. Epoch 2 adds a session that needs new GPUs
// and the pool refuses the first acquire, so the deployment keeps serving
// epoch 1's plan; epoch 3 must then plan against that deployed plan, so
// every node it did not add is one that is actually deployed.
func TestFailedApplyKeepsPlannerBaseline(t *testing.T) {
	e := newEnv(t, nexusConfig(), 32)
	addMixedSessions(t, e, 6)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.AddSession(SessionSpec{
		ID: "big", ModelID: model.ResNet50, SLO: 200 * time.Millisecond, ExpectedRate: 1500,
	}); err != nil {
		t.Fatal(err)
	}
	deployed := map[string]bool{}
	for _, g := range e.sched.Plan().GPUs {
		deployed[g.ID] = true
	}
	e.pool.refuse = 1
	if err := e.sched.RunEpoch(); err == nil {
		t.Fatal("epoch 2 applied despite the refused acquire")
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, g := range e.sched.Plan().GPUs {
		if !deployed[g.ID] {
			fresh++
		}
	}
	if stats := e.sched.LastMoveStats(); fresh > stats.NodesAdded {
		t.Fatalf("epoch 3 reports %d nodes added but %d of its nodes were never deployed (stats %+v)",
			stats.NodesAdded, fresh, stats)
	}
}

// TestHysteresisDeltaEpochServesTraffic: the control plane with plan
// hysteresis and delta routing serves a mixed workload end to end.
func TestHysteresisDeltaEpochServesTraffic(t *testing.T) {
	cfg := nexusConfig()
	cfg.PlanHysteresis = 0.05
	cfg.DeltaRouting = true
	e := newEnv(t, cfg, 64)
	addMixedSessions(t, e, 12)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if e.sched.Explain().PlanSkipped {
		t.Fatal("first epoch skipped planning")
	}
	e.clock.RunUntil(2 * time.Second)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		sid := fmt.Sprintf("s%02d", i)
		workload.Start(e.clock, rng, sid, e.sessions.Intern(sid), 200*time.Millisecond, workload.Uniform{Rate: 50},
			e.clock.Now()+10*time.Second, func(r workload.Request) { e.fe.Dispatch(r) })
	}
	e.clock.RunUntil(8 * time.Second)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	e.clock.Run()
	total := e.good + e.missed + e.dropped
	if total < 5000 {
		t.Fatalf("completed %d requests", total)
	}
	if bad := float64(e.missed+e.dropped) / float64(total); bad > 0.02 {
		t.Fatalf("bad rate %.3f under plan hysteresis and delta routing", bad)
	}
}

// TestHysteresisSkipsQuietEpochs: with stable observed rates, later epochs
// skip re-planning and re-use the applied plan.
func TestHysteresisSkipsQuietEpochs(t *testing.T) {
	cfg := nexusConfig()
	cfg.PlanHysteresis = 0.05
	cfg.Audit = trace.NewAudit()
	e := newEnv(t, cfg, 32)
	addMixedSessions(t, e, 8)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// Quiet epochs: no traffic at all, so EWMA rates only decay; after the
	// first decay settles inside the band, epochs stop re-planning.
	skipped := false
	for i := 0; i < 6 && !skipped; i++ {
		before := e.sched.Plan()
		e.clock.RunUntil(e.clock.Now() + 10*time.Second)
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if skipped = e.sched.Explain().PlanSkipped; skipped && e.sched.Plan() != before {
			t.Fatal("skipped epoch replaced the applied plan")
		}
	}
	if !skipped {
		t.Fatal("no quiet epoch skipped re-planning")
	}
	if e.sched.PlansSkipped() == 0 {
		t.Fatal("cumulative skip counter never advanced")
	}
	diffs := cfg.Audit.PlanDiffs()
	if last := diffs[len(diffs)-1]; !last.PlanSkipped || last.SessionsMoved != 0 {
		t.Fatalf("skipped epoch's plan diff = %+v", last)
	}
}

// TestDeltaRoutingSteadyState: an epoch that does not change the routing
// table pushes nothing at all, and route-changing epochs go out as deltas,
// not full tables.
func TestDeltaRoutingSteadyState(t *testing.T) {
	cfg := nexusConfig()
	cfg.PlanHysteresis = 0.05
	cfg.DeltaRouting = true
	e := newEnv(t, cfg, 32)
	addMixedSessions(t, e, 8)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	deltas0, fulls0, _ := e.sched.RoutePushStats()
	if fulls0 != 1 || deltas0 != 0 {
		t.Fatalf("first publish: deltas=%d fulls=%d, want 0/1", deltas0, fulls0)
	}
	ver := e.fe.TableVersion()
	// Find a steady-state epoch: table unchanged -> no push at all.
	settled := false
	for i := 0; i < 6; i++ {
		e.clock.RunUntil(e.clock.Now() + 10*time.Second)
		before := e.fe.TableVersion()
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if e.fe.TableVersion() == before {
			settled = true
			break
		}
	}
	if !settled {
		t.Fatalf("no steady-state epoch skipped the push (version %d -> %d)", ver, e.fe.TableVersion())
	}
	// The frontend's routing table still matches the scheduler's plan view.
	if len(e.fe.Sessions()) != 8 {
		t.Fatalf("routable sessions = %v", e.fe.Sessions())
	}
}

// TestDeltaRoutingResyncAfterLocalRepair: a frontend that repaired routes
// locally (backend death) diverges from the publish generation; the next
// epoch's delta bounces and the control plane full-resyncs it.
func TestDeltaRoutingResyncAfterLocalRepair(t *testing.T) {
	cfg := nexusConfig()
	cfg.DeltaRouting = true
	e := newEnv(t, cfg, 32)
	addMixedSessions(t, e, 6)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	genBefore := e.fe.Generation()
	// Simulate a local repair: the frontend deletes a backend's routes on
	// its own and moves off the control plane's generation sequence.
	// Pick the lexicographically smallest in-use backend: iterating the map
	// directly made the victim — and therefore whether the repaired routes
	// intersect the next epoch's plan — vary run to run.
	var victim string
	for beID := range e.pool.inUse {
		if victim == "" || beID < victim {
			victim = beID
		}
	}
	if e.fe.RemoveBackend(victim) == 0 {
		t.Fatalf("backend %s had no routes to repair", victim)
	}
	if e.fe.Generation() == genBefore {
		t.Fatal("local repair did not move the generation")
	}
	// Drive real traffic so the next epoch re-plans with changed rates and
	// must push an update.
	e.clock.RunUntil(2 * time.Second)
	rng := rand.New(rand.NewSource(3))
	workload.Start(e.clock, rng, "s00", e.sessions.Intern("s00"), 200*time.Millisecond, workload.Uniform{Rate: 400},
		e.clock.Now()+6*time.Second, func(r workload.Request) { e.fe.Dispatch(r) })
	e.clock.RunUntil(9 * time.Second)
	_, fullsBefore, _ := e.sched.RoutePushStats()
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	_, fullsAfter, _ := e.sched.RoutePushStats()
	if fullsAfter != fullsBefore+1 {
		t.Fatalf("diverged frontend was not full-resynced: fulls %d -> %d", fullsBefore, fullsAfter)
	}
	// After the resync, generations re-align and the frontend serves the
	// scheduler's full session set again.
	if len(e.fe.Sessions()) != 6 {
		t.Fatalf("routable sessions after resync = %v", e.fe.Sessions())
	}
	e.clock.Run()
}

// TestTotalMovedCountsAppliedEpochs: the cumulative moved-session counter
// counts exactly the epochs that were applied and reported through
// OnEpoch. Admission-control re-iterations on a capacity-bound pool, and
// an epoch whose apply the pool refuses, must add nothing of their own.
func TestTotalMovedCountsAppliedEpochs(t *testing.T) {
	const capacity = 6
	reported := 0
	cfg := nexusConfig()
	cfg.OnEpoch = func(_ int, stats scheduler.MoveStats, _ int) { reported += stats.SessionsMoved }
	e := newEnv(t, cfg, capacity)
	addMixedSessions(t, e, 12)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	overloaded, refused := false, false
	for epoch := 0; epoch < 8; epoch++ {
		start := e.clock.Now() + time.Second
		e.clock.RunUntil(start)
		for i := 0; i < 12; i++ {
			sid := fmt.Sprintf("s%02d", i)
			workload.Start(e.clock, rng, sid, e.sessions.Intern(sid), 200*time.Millisecond,
				workload.Uniform{Rate: 20 + float64(rng.Intn(400))},
				start+8*time.Second, func(r workload.Request) { e.fe.Dispatch(r) })
		}
		e.clock.RunUntil(start + 9*time.Second)
		if epoch == 4 {
			e.pool.refuse = 1
		}
		err := e.sched.RunEpoch()
		if err != nil {
			if epoch != 4 {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			refused = true
		}
		e.pool.refuse = 0
		overloaded = overloaded || e.sched.GPUsDemanded() > capacity
	}
	if !overloaded || !refused {
		t.Fatalf("scenario did not exercise re-iteration (%v) and a refused apply (%v)", overloaded, refused)
	}
	if got := e.sched.TotalMoved(); got != reported {
		t.Fatalf("TotalMoved = %d, OnEpoch reported %d sessions moved", got, reported)
	}
}
