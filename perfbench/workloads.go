package main

import (
	"fmt"
	"math/rand"
	"time"

	"nexus"
	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/forensics"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/scheduler"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// A job is one built instance of a workload: setup made it, call is the
// timed public call (Deployment.Run or nexus.Pack), and check reads back the
// outputs and verifies them. Only call is measured for host cost.
type job interface {
	call() error
	check(withTrace bool) (*outcome, error)
	// spans name the timed call and the check in traces and reports.
	spans() (call, check string)
}

// outcome is what one run of a workload produced.
type outcome struct {
	items     uint64 // per-request denominator: data-plane requests, or sessions placed
	attempted uint64 // operations: end-to-end simulated requests, or plans
	bad       uint64 // simulated requests lost or late (a modelled outcome, not a failure)
	goodput   float64
	badPct    float64
	gpus      float64 // mean GPUs in use, or GPUs in the plan
	planGPUs  int
	digest    string
	// counters are the simulated per-layer counters, exact for a seed.
	counters map[string]float64
}

type workloadDef struct {
	name  string
	build func(seed int64) (job, error)
}

var workloads = []workloadDef{
	{"game-steady", buildGameSteady},
	{"fleet-surge-observed", buildFleetSurge},
	{"plan-10k", buildPlan10k},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// --- simulation workloads ----------------------------------------------------

const (
	// gameRate is the offered load of game-steady: about 70% of the
	// 85,209 req/s max goodput results/bench.json records for full Nexus.
	gameRate   = 60000.0
	gameWindow = 10 * time.Second
	// fleetWindow is fleet-surge-observed's measured virtual time: ten 30 s
	// epochs, with the surge query live in the middle third.
	fleetWindow = 300 * time.Second
)

// simJob is a deployment built and ready to run.
type simJob struct {
	d       *cluster.Deployment
	window  time.Duration
	loads   []string // standalone session IDs
	queries []string // query names
	moved   int      // sessions moved, summed over epochs
	added   int      // plan nodes added, summed over epochs
}

// buildGameSteady is the Figure 10 game app on a fixed 16-GPU cluster with
// every Nexus feature on and no tracer or telemetry.
func buildGameSteady(seed int64) (job, error) {
	j := &simJob{window: gameWindow}
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 16, GPU: profiler.GTX1080Ti, Seed: seed,
		Epoch: 10 * time.Second, FixedCluster: true,
		OnEpoch: j.onEpoch,
	})
	if err != nil {
		return nil, err
	}
	j.d = d
	if err := j.deploy(apps.Game(20, gameRate/7)); err != nil {
		return nil, err
	}
	return j, nil
}

// buildFleetSurge is the Figure 13 deployment: seven apps with Poisson
// arrivals on an elastic pool of 100 K80s, 30 s epochs and a mid-window
// surge query, with the flight recorder on (tracer, audit log, telemetry
// alerts), as nexus-sim -forensics runs it.
func buildFleetSurge(seed int64) (job, error) {
	j := &simJob{window: fleetWindow}
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 100, GPU: profiler.K80, Seed: seed,
		Epoch: 30 * time.Second, Warmup: 10 * time.Second,
		Forensics: &forensics.Config{},
		OnEpoch:   j.onEpoch,
	})
	if err != nil {
		return nil, err
	}
	j.d = d
	for _, b := range apps.All(0.5) {
		if err := j.deploy(b); err != nil {
			return nil, err
		}
	}
	// A second camera feed comes online for the middle third of the window.
	surge, err := apps.Traffic(10, 16*0.5, false)(d.ModelDB())
	if err != nil {
		return nil, err
	}
	q := surge.Queries[0].Spec
	q.Query.Name = "traffic-surge"
	sched := workload.Schedule{
		{Until: fleetWindow / 3, Rate: 0},
		{Until: 2 * fleetWindow / 3, Rate: q.ExpectedRate},
		{Until: 10 * fleetWindow, Rate: 0},
	}
	q.ExpectedRate = 0.1
	if err := d.AddQuery(q, workload.Modulated{RateAt: sched.RateAt}); err != nil {
		return nil, err
	}
	j.queries = append(j.queries, q.Query.Name)
	return j, nil
}

// deploy installs an app with Poisson arrivals and remembers its loads.
func (j *simJob) deploy(b apps.Builder) error {
	spec, err := apps.Deploy(j.d, func(mdb *model.DB) (*apps.Spec, error) {
		s, err := b(mdb)
		if err != nil {
			return nil, err
		}
		return apps.WithPoisson(s), nil
	})
	if err != nil {
		return err
	}
	for _, s := range spec.Sessions {
		j.loads = append(j.loads, s.Spec.ID)
	}
	for _, q := range spec.Queries {
		j.queries = append(j.queries, q.Spec.Query.Name)
	}
	return nil
}

func (j *simJob) onEpoch(_ int, stats scheduler.MoveStats, _ int) {
	j.moved += stats.SessionsMoved
	j.added += stats.NodesAdded
}

func (j *simJob) spans() (string, string) { return "Run", "check" }

func (j *simJob) call() error {
	_, err := j.d.Run(j.window)
	return err
}

func (j *simJob) check(withTrace bool) (*outcome, error) {
	d := j.d
	total := d.Recorder.Total()
	if err := conserved("all data-plane requests", total); err != nil {
		return nil, err
	}
	if n := d.Clock.Pending(); n != 0 {
		return nil, fmt.Errorf("%d simulation events left after the drain", n)
	}
	// End-to-end operations: standalone requests plus whole queries.
	var attempted, bad uint64
	for _, id := range j.loads {
		s := d.Recorder.Session(id)
		if err := conserved("session "+id, s); err != nil {
			return nil, err
		}
		attempted += s.Sent
		bad += s.Bad()
	}
	for _, name := range j.queries {
		s := d.QueryStats(name)
		if err := conserved("query "+name, s); err != nil {
			return nil, err
		}
		attempted += s.Sent
		bad += s.Bad()
	}
	if attempted == 0 || total.Sent == 0 {
		return nil, fmt.Errorf("no requests resolved")
	}
	badRate := d.BadRate()
	if want := float64(bad) / float64(attempted); badRate != want {
		return nil, fmt.Errorf("BadRate %v disagrees with %d bad of %d requests", badRate, bad, attempted)
	}
	o := &outcome{
		items:     total.Sent,
		attempted: attempted,
		bad:       bad,
		goodput:   d.Goodput(j.window),
		badPct:    100 * badRate,
		gpus:      d.AvgGPUsUsed(),
		planGPUs:  d.Sched.Plan().GPUCount(),
	}
	var arrivals float64
	for i := 0; i < d.Arrivals.Len(); i++ {
		arrivals += d.Arrivals.Sum(i)
	}
	var busyFrac float64
	if avail := float64(d.Pool.InUse()) * float64(d.Clock.Now()); avail > 0 {
		busyFrac = float64(d.Pool.TotalBusy()) / avail
	}
	o.counters = map[string]float64{
		"simclock.events_per_req":    float64(d.Clock.Executed()) / float64(total.Sent),
		"workload.arrivals":          arrivals,
		"frontend.unroutable":        float64(d.Unroutable()),
		"backend.early_drops":        float64(total.Dropped),
		"backend.late":               float64(total.Missed),
		"backend.reconfig_lost":      float64(total.Reconfig),
		"backend.useful_ratio":       float64(total.Good()) / float64(total.Sent),
		"gpusim.busy_frac":           busyFrac,
		"globalsched.epochs":         float64(d.Sched.Epochs()),
		"globalsched.sessions_moved": float64(j.moved),
		"globalsched.nodes_added":    float64(j.added),
	}
	if withTrace && d.Tracer() != nil {
		a := trace.Analyze(d.Tracer().Events())
		for _, st := range []struct {
			name string
			s    trace.StageStats
		}{{"dispatch", a.Dispatch}, {"queue", a.Queue}, {"gpu", a.GPU}, {"total", a.Total}} {
			o.counters["trace."+st.name+"_ms_p50"] = ms(st.s.P50)
			o.counters["trace."+st.name+"_ms_p99"] = ms(st.s.P99)
		}
	}
	var dg digest
	dg.addStats("total", total)
	dg.add("attempted", attempted)
	dg.add("bad", bad)
	dg.add("goodput", o.goodput)
	dg.add("gpus_used", o.gpus)
	dg.add("events", d.Clock.Executed())
	dg.add("plan.gpus", o.planGPUs)
	o.digest = dg.sum()
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- plan-10k ----------------------------------------------------------------

// planJob is a cold packing input: about 6000 sessions on 40 linear
// batching profiles, sized so the plan lands near 10k GPUs.
type planJob struct {
	sessions []nexus.Session
	profiles map[string]*nexus.Profile
	cfg      nexus.SchedConfig
	plan     *nexus.Plan
}

const (
	planModels   = 40
	planSessions = 6000
	// planRateScale is the head session's rate (req/s); it sizes the plan
	// at about 10k GPUs.
	planRateScale = 13000.0
)

// buildPlan10k generates the input from the seed. Each model's profile
// takes α from [200µs, 1700µs) and β from [2ms, 10ms), the ranges of the
// scheduler's own large-scale benchmarks, but stratified: the seed draws
// one value inside each of 40 equal strata and shuffles which model gets
// which, so every seed packs about the same number of GPUs. Sessions follow
// a heavy-head, long-tail rate pattern with mixed SLOs, rates high enough
// that saturated whole-GPU nodes carry most of the GPU count.
func buildPlan10k(seed int64) (job, error) {
	rng := rand.New(rand.NewSource(seed))
	alphas, betas := rng.Perm(planModels), rng.Perm(planModels)
	stratum := func(lo, width time.Duration, k int) time.Duration {
		return lo + time.Duration(float64(width)*(float64(k)+rng.Float64())/planModels)
	}
	j := &planJob{profiles: make(map[string]*nexus.Profile, planModels)}
	for m := 0; m < planModels; m++ {
		id := fmt.Sprintf("m%03d", m)
		p := &nexus.Profile{
			ModelID: id, GPU: nexus.GTX1080Ti,
			Alpha:    stratum(200*time.Microsecond, 1500*time.Microsecond, alphas[m]),
			Beta:     stratum(2*time.Millisecond, 8*time.Millisecond, betas[m]),
			MaxBatch: 64,
			MemBase:  1 << 28, MemPerItem: 1 << 20,
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		j.profiles[id] = p
	}
	j.sessions = make([]nexus.Session, planSessions)
	for s := range j.sessions {
		j.sessions[s] = nexus.Session{
			ID:      fmt.Sprintf("s%04d", s),
			ModelID: fmt.Sprintf("m%03d", s%planModels),
			SLO:     time.Duration(50+25*(s%8)) * time.Millisecond,
			Rate:    planRateScale / float64(1+s%37),
		}
	}
	return j, nil
}

func (j *planJob) spans() (string, string) { return "Pack", "ValidatePlan" }

func (j *planJob) call() error {
	plan, err := nexus.Pack(j.sessions, j.profiles, j.cfg)
	j.plan = plan
	return err
}

func (j *planJob) check(bool) (*outcome, error) {
	if err := nexus.ValidatePlan(j.plan, j.sessions, j.profiles, j.cfg); err != nil {
		return nil, fmt.Errorf("ValidatePlan: %w", err)
	}
	var demand float64
	for _, s := range j.sessions {
		demand += s.Rate
	}
	var dg digest
	dg.addPlan(j.plan)
	return &outcome{
		items:     uint64(len(j.sessions)),
		attempted: 1,
		goodput:   demand,
		gpus:      float64(j.plan.GPUCount()),
		planGPUs:  j.plan.GPUCount(),
		digest:    dg.sum(),
		counters:  map[string]float64{},
	}, nil
}
