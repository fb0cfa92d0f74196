package experiments

import (
	"fmt"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/runner"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{
		ID:          "ctrl-plane",
		Description: "Plan hysteresis + delta routing vs re-planning every epoch: goodput parity on the Figure 13 workload",
		Run:         ctrlPlane,
	})
}

// ctrlPlaneVariant is one control-plane configuration of the ablation.
type ctrlPlaneVariant struct {
	name       string
	hysteresis float64
	delta      bool
}

// ctrlPlaneResult carries one variant's deployment outcome plus the
// control-plane counters its features expose.
type ctrlPlaneResult struct {
	badPct  float64
	goodput float64
	gpus    float64
	skipped int
	deltas  int
	fulls   int
}

// ctrlPlaneDeploy runs the Figure 13 deployment window (seven applications
// with Poisson arrivals and a mid-window traffic surge) under a given
// control-plane configuration. The workload, seed, and horizon are identical
// across variants, so any goodput difference is attributable to the
// control-plane configuration.
func ctrlPlaneDeploy(rc *RunContext, v ctrlPlaneVariant) (ctrlPlaneResult, error) {
	gpus, scale := 100, 0.5
	window := 1000 * time.Second
	gpuType := profiler.K80
	if rc.Short {
		gpus, scale = 24, 0.2
		window = 200 * time.Second
		gpuType = profiler.GTX1080Ti
	}
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: gpus, GPU: gpuType, Seed: 13,
		Epoch: 30 * time.Second, Warmup: 10 * time.Second,
		PlanHysteresis: v.hysteresis, DeltaRouting: v.delta,
	})
	if err != nil {
		return ctrlPlaneResult{}, err
	}
	for _, b := range apps.All(scale) {
		if _, err := apps.Deploy(d, func(mdb *model.DB) (*apps.Spec, error) {
			s, err := b(mdb)
			if err != nil {
				return nil, err
			}
			return apps.WithPoisson(s), nil
		}); err != nil {
			return ctrlPlaneResult{}, err
		}
	}
	surgeSpec, err := apps.Traffic(10, 16*scale, false)(d.ModelDB())
	if err != nil {
		return ctrlPlaneResult{}, err
	}
	surgeQuery := surgeSpec.Queries[0].Spec
	surgeQuery.Query.Name = "traffic-surge"
	surgeSched := workload.Schedule{
		{Until: window / 3, Rate: 0},
		{Until: 2 * window / 3, Rate: surgeQuery.ExpectedRate},
		{Until: window * 10, Rate: 0},
	}
	surgeQuery.ExpectedRate = 0.1
	if err := d.AddQuery(surgeQuery, workload.Modulated{RateAt: surgeSched.RateAt}); err != nil {
		return ctrlPlaneResult{}, err
	}
	if _, err := d.Run(window); err != nil {
		return ctrlPlaneResult{}, err
	}
	finishDeployment(rc, d)
	res := ctrlPlaneResult{
		badPct:  100 * d.BadRate(),
		goodput: 100 * (1 - d.BadRate()),
		gpus:    d.AvgGPUsUsed(),
		skipped: d.Sched.PlansSkipped(),
	}
	if v.delta {
		deltas, fulls, _ := d.Sched.RoutePushStats()
		res.deltas, res.fulls = int(deltas), int(fulls)
	}
	return res, nil
}

// ctrlPlane compares the epoch planner re-planning every epoch (the
// "monolithic" row) against the same planner with a 5% plan-hysteresis band
// and delta routing-table pushes on the Figure 13 deployment window. The
// acceptance bar is the goodput delta: skipping in-band re-plans and
// pushing deltas must stay within 1% of re-planning every epoch.
func ctrlPlane(rc *RunContext) (*Table, error) {
	variants := []ctrlPlaneVariant{
		{name: "monolithic"},
		{name: "hysteresis+delta", hysteresis: 0.05, delta: true},
	}
	type cell struct {
		res ctrlPlaneResult
		err error
	}
	cells := runner.MapNamed("ctrlplane", len(variants), func(i int) cell {
		res, err := ctrlPlaneDeploy(rc, variants[i])
		return cell{res, err}
	})
	t := &Table{
		ID:     "ctrl-plane",
		Title:  "control-plane ablation on the Figure 13 deployment window",
		Header: []string{"planner", "goodput %", "bad %", "GPUs in use", "plans skipped", "delta pushes", "full pushes", "goodput delta"},
		Notes: []string{
			"plan hysteresis and delta routing must hold goodput within 1% of re-planning every epoch on the same workload and seed",
			"hysteresis+delta adds a 5% plan-hysteresis band and delta routing-table pushes to the same planner",
		},
	}
	var mono ctrlPlaneResult
	for i, v := range variants {
		if cells[i].err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, cells[i].err)
		}
		res := cells[i].res
		if i == 0 {
			mono = res
		}
		dash := func(n int, on bool) string {
			if !on {
				return "-"
			}
			return fmt.Sprintf("%d", n)
		}
		t.AddRow(v.name,
			fmt.Sprintf("%.2f", res.goodput),
			fmt.Sprintf("%.2f", res.badPct),
			fmt.Sprintf("%.1f", res.gpus),
			dash(res.skipped, v.hysteresis > 0),
			dash(res.deltas, v.delta),
			dash(res.fulls, v.delta),
			fmt.Sprintf("%+.2f%%", res.goodput-mono.goodput),
		)
	}
	return t, nil
}
