package cluster

import (
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/queryopt"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// indexQuery is a two-level query with fractional fan-out, so its stage
// sessions are interned after the standalone ones and dispatched from
// completions.
func indexQuery() *queryopt.Query {
	return &queryopt.Query{
		Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 1.5, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
			{Gamma: 0.5, Child: &queryopt.Node{Name: "face", ModelID: model.VGGFace}},
		}},
	}
}

// traceLedger counts a trace's events per session: arrivals, completions,
// and drops by cause.
type traceLedger struct {
	arrive, complete uint64
	drops            map[string]uint64
}

func ledgers(t *testing.T, tr *trace.Tracer) map[string]*traceLedger {
	t.Helper()
	events := tr.Events()
	if tr.Total() != uint64(len(events)) {
		t.Fatalf("ring evicted events (%d recorded, %d retained); enlarge TraceCapacity", tr.Total(), len(events))
	}
	out := make(map[string]*traceLedger)
	for _, e := range events {
		l := out[e.Session]
		if l == nil {
			l = &traceLedger{drops: make(map[string]uint64)}
			out[e.Session] = l
		}
		switch e.Kind {
		case trace.Arrive:
			l.arrive++
		case trace.Complete:
			l.complete++
		case trace.Drop:
			l.drops[e.Cause]++
		}
	}
	return out
}

// reconcile checks one ledger against the recorder's stats exactly.
func reconcile(t *testing.T, sid string, l *traceLedger, s *metrics.SessionStats) {
	t.Helper()
	if l == nil {
		l = &traceLedger{}
	}
	want := map[string]uint64{
		"deadline": s.Dropped, "unroutable": s.Unroutable, "reconfig": s.Reconfig,
		"overload": s.Overload, "failure": s.Failed, "admission": s.Admission,
	}
	for cause, n := range want {
		if l.drops[cause] != n {
			t.Errorf("%s: cause %q: trace has %d drops, recorder %d", sid, cause, l.drops[cause], n)
		}
	}
	for cause := range l.drops {
		if _, ok := want[cause]; !ok {
			t.Errorf("%s: trace drop cause %q unknown to the recorder", sid, cause)
		}
	}
	if l.complete != s.Completed || l.arrive != s.Sent {
		t.Errorf("%s: trace has %d arrivals and %d completions, recorder %d sent and %d completed",
			sid, l.arrive, l.complete, s.Sent, s.Completed)
	}
}

// TestSessionIndexMatchesSessionID is the differential check on the
// session index: on a traced run with standalone sessions, a fan-out
// query, a backend crash and several re-plans, every request a backend
// reports resolves its index to its own session ID, and the recorder —
// which counts by index — agrees exactly, session by session and cause by
// cause, with the trace, which names sessions by ID.
func TestSessionIndexMatchesSessionID(t *testing.T) {
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 8, Seed: 5, Epoch: 4 * time.Second,
		Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryFailures: true,
		TraceCapacity: 1 << 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []globalsched.SessionSpec{
		{ID: "cam", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 300},
		{ID: "doc", ModelID: model.LeNet5, SLO: 50 * time.Millisecond, ExpectedRate: 200},
	} {
		if err := d.AddSession(s, workload.Poisson{Rate: s.ExpectedRate}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddQuery(globalsched.QuerySpec{Query: indexQuery(), ExpectedRate: 60}, nil); err != nil {
		t.Fatal(err)
	}
	checked := 0
	done := d.Pool.onDone
	d.Pool.onDone = func(beID string) backend.CompletionFunc {
		f := done(beID)
		return func(req workload.Request, outcome backend.Outcome, at time.Duration) {
			if id := d.sessions.ID(req.SessionIndex); id != req.Session {
				t.Errorf("request %d of %s carries index %d, which names %s", req.ID, req.Session, req.SessionIndex, id)
			}
			checked++
			f(req, outcome, at)
		}
	}
	in := faults.New(d.Clock, d, 5)
	if err := in.Schedule(faults.Script{{At: 7 * time.Second, Kind: faults.Crash, Backend: "be0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	if checked < 5000 || d.Sched.Epochs() < 3 {
		t.Fatalf("only %d backend completions over %d epochs; test is vacuous", checked, d.Sched.Epochs())
	}
	byID := ledgers(t, d.Tracer())
	ids := d.Recorder.SessionIDs()
	if len(ids) != 5 {
		t.Fatalf("recorder knows sessions %v, want 2 standalone and 3 stages", ids)
	}
	var failed uint64
	for _, sid := range ids {
		s := d.Recorder.Session(sid)
		failed += s.Failed
		reconcile(t, sid, byID[sid], s)
	}
	if failed == 0 {
		t.Fatal("the crash lost no request; the chaos path is untested")
	}
}

// TestWarmupWatermarkReconciles drives a traced, overloaded run whose
// warmup leaves requests queued — standalone ones and query stages — when
// collection begins. Those finish during the measured window but belong to
// neither ledger: the recorder and the trace's arrivals, completions and
// drops by cause agree exactly, and match the counts recorded before the
// watermark replaced per-request warmup tracking. No span of a request
// issued during warmup is kept, not even the enqueue span the frontend
// records after the backend dropped the request inside Enqueue: the
// per-request tracking had forgotten such a request by then and let 18 of
// those spans through in this run.
func TestWarmupWatermarkReconciles(t *testing.T) {
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 2, Seed: 11, Epoch: 10 * time.Second,
		TraceCapacity: 1 << 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The plan provisions for a fraction of the offered load, so queues
	// stay deep across the warmup boundary.
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "hot", ModelID: model.GoogLeNetCar, SLO: 200 * time.Millisecond, ExpectedRate: 80,
	}, workload.Uniform{Rate: 600}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddQuery(globalsched.QuerySpec{Query: indexQuery(), ExpectedRate: 20}, workload.Poisson{Rate: 60}); err != nil {
		t.Fatal(err)
	}
	queued := 0
	// Scheduled before Run, so it fires at the warmup instant just before
	// collection begins.
	d.Clock.At(2*time.Second, func() {
		for _, be := range d.Pool.backends {
			queued += be.QueuedTotal()
		}
	})
	if _, err := d.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if queued == 0 || d.warmSeq == 0 {
		t.Fatal("no warmup request was queued when collection began; test is vacuous")
	}
	byID := ledgers(t, d.Tracer())
	for _, sid := range d.Recorder.SessionIDs() {
		reconcile(t, sid, byID[sid], d.Recorder.Session(sid))
	}
	tot, qs := d.Recorder.Total(), d.QueryStats("traffic")
	got := [...]uint64{tot.Sent, tot.Completed, tot.Missed, tot.Dropped, tot.Overload, tot.Reconfig, qs.Sent, qs.Missed}
	// Recorded with the per-request warmup set the watermark replaced.
	want := [...]uint64{4633, 1580, 0, 3053, 0, 0, 356, 73}
	if got != want {
		t.Fatalf("totals sent/completed/missed/dropped/overload/reconfig and query sent/missed = %v, want %v", got, want)
	}
	for _, e := range d.Tracer().Events() {
		if e.ReqID <= d.warmSeq {
			t.Fatalf("trace kept a %s span of warmup request %d (watermark %d)", e.Kind, e.ReqID, d.warmSeq)
		}
	}
}
