package scheduler

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/profiler"
)

// plannerWorkload builds a mixed workload: tiny residual sessions plus a
// few saturated ones.
func plannerWorkload(n int) ([]Session, map[string]*profiler.Profile) {
	profiles := map[string]*profiler.Profile{
		"m0": linearProfile("m0", time.Millisecond, 5*time.Millisecond, 32),
		"m1": linearProfile("m1", 2*time.Millisecond, 8*time.Millisecond, 32),
	}
	sessions := make([]Session, n)
	for i := range sessions {
		rate := 400 / float64(1+i%11)
		sessions[i] = Session{
			ID:      fmt.Sprintf("s%03d", i),
			ModelID: fmt.Sprintf("m%d", i%2),
			SLO:     time.Duration(100+50*(i%4)) * time.Millisecond,
			Rate:    rate,
		}
	}
	return sessions, profiles
}

// TestPlannerMatchesPackThenIncremental is the differential oracle for the
// control plane's only squishy planning path: over random session sets and
// a seeded five-epoch rate walk, the planner (Plan + Commit each epoch)
// must equal Pack on the first epoch and Incremental chained on its own
// output after that — plan and move stats alike — and every plan must pass
// Validate.
func TestPlannerMatchesPackThenIncremental(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sessions, profiles := randomWorkload(rng)
		cfg := Config{GPUMemBytes: 11 << 30}
		var p Planner
		var oracle *Plan
		for epoch := 0; epoch < 5; epoch++ {
			if epoch > 0 {
				next := make([]Session, len(sessions))
				copy(next, sessions)
				for i := range next {
					next[i].Rate *= 0.5 + rng.Float64()
					if rng.Intn(10) == 0 {
						next[i].Rate = 0
					}
				}
				sessions = next
			}
			var want MoveStats
			var err error
			if oracle == nil {
				oracle, err = Pack(sessions, profiles, cfg)
			} else {
				oracle, want, err = Incremental(oracle, sessions, profiles, cfg)
			}
			if err != nil {
				t.Logf("seed %d epoch %d: oracle: %v", seed, epoch, err)
				return false
			}
			res, err := p.Plan(sessions, profiles, cfg, PlanOpts{})
			if err != nil {
				t.Logf("seed %d epoch %d: planner: %v", seed, epoch, err)
				return false
			}
			p.Commit(res)
			if !reflect.DeepEqual(res.Plan, oracle) || res.Stats != want || res.Skipped {
				t.Logf("seed %d epoch %d: planner diverges from the oracle:\n got %+v %+v\nwant %+v %+v",
					seed, epoch, res.Plan, res.Stats, oracle, want)
				return false
			}
			if err := Validate(res.Plan, sessions, profiles, cfg); err != nil {
				t.Logf("seed %d epoch %d: %v", seed, epoch, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerHysteresisSkip: an unchanged workload re-plans nothing; the
// committed plan carries forward verbatim.
func TestPlannerHysteresisSkip(t *testing.T) {
	sessions, profiles := plannerWorkload(24)
	var p Planner
	opts := PlanOpts{Hysteresis: 0.05}
	first, err := p.Plan(sessions, profiles, Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Commit(first)
	second, err := p.Plan(sessions, profiles, Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Skipped {
		t.Fatalf("unchanged epoch re-planned: %+v", second.Stats)
	}
	if !reflect.DeepEqual(second.Plan, first.Plan) {
		t.Fatal("carried-forward plan differs from committed plan")
	}
	if want := (MoveStats{NodesKept: len(first.Plan.GPUs)}); second.Stats != want {
		t.Fatalf("skip stats = %+v, want %+v", second.Stats, want)
	}

	// In-band wobble (well under 5% and under the absolute floor) still skips.
	wobbled := make([]Session, len(sessions))
	copy(wobbled, sessions)
	for i := range wobbled {
		wobbled[i].Rate *= 1.001
	}
	if third, err := p.Plan(wobbled, profiles, Config{}, opts); err != nil || !third.Skipped {
		t.Fatalf("in-band wobble re-planned (err %v)", err)
	}

	// One material rate change, or one session fewer, re-plans.
	changed := make([]Session, len(sessions))
	copy(changed, sessions)
	changed[0].Rate *= 2
	for _, next := range [][]Session{changed, sessions[1:]} {
		res, err := p.Plan(next, profiles, Config{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Skipped {
			t.Fatalf("workload change of %d sessions skipped re-planning", len(next))
		}
		if err := Validate(res.Plan, next, profiles, Config{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlannerForceReplans: admission-control re-iterations re-plan inside
// the band so globally scaled rates take effect.
func TestPlannerForceReplans(t *testing.T) {
	sessions, profiles := plannerWorkload(24)
	var p Planner
	first, err := p.Plan(sessions, profiles, Config{}, PlanOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	p.Commit(first)
	second, err := p.Plan(sessions, profiles, Config{}, PlanOpts{Hysteresis: 0.05, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Skipped {
		t.Fatal("Force skipped re-planning")
	}
}

// TestPlannerPlanIsPure: Plan never mutates the planner; only Commit does.
// The control plane relies on this to iterate admission control safely.
func TestPlannerPlanIsPure(t *testing.T) {
	sessions, profiles := plannerWorkload(24)
	var p Planner
	first, err := p.Plan(sessions, profiles, Config{}, PlanOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// No Commit: a second identical Plan call must still see no previous
	// state and re-plan, identically.
	second, err := p.Plan(sessions, profiles, Config{}, PlanOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if second.Skipped {
		t.Fatal("uncommitted Plan leaked state")
	}
	if !reflect.DeepEqual(second.Plan, first.Plan) {
		t.Fatal("repeated uncommitted Plan calls disagree")
	}
}
