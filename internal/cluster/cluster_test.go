package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/queryopt"
	"nexus/internal/workload"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero GPUs", Config{GPUs: 0}},
		{"negative shards", Config{GPUs: 4, PlannerShards: -1}},
		{"negative hysteresis", Config{GPUs: 4, PlanHysteresis: -0.05}},
		{"NaN hysteresis", Config{GPUs: 4, PlanHysteresis: math.NaN()}},
		{"+Inf hysteresis", Config{GPUs: 4, PlanHysteresis: math.Inf(1)}},
		{"-Inf hysteresis", Config{GPUs: 4, PlanHysteresis: math.Inf(-1)}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestNexusServesSimpleSession(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 4, Seed: 1, Epoch: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 200,
	}, nil); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Run(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0.01 {
		t.Fatalf("bad rate %.4f, want <= 1%%", bad)
	}
	st := d.Recorder.Session("s")
	if st.Sent < 3500 {
		t.Fatalf("sent %d requests, want ~4000", st.Sent)
	}
	// p99 latency within SLO.
	if p99 := st.Latency.Quantile(0.99); p99 > 100*time.Millisecond {
		t.Fatalf("p99 latency %v exceeds SLO", p99)
	}
}

func TestWarmupExcluded(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 2, Seed: 1, Warmup: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.LeNet5, SLO: 50 * time.Millisecond, ExpectedRate: 100,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Recorder.Session("s")
	// Only ~10s of traffic should be counted, not 15s.
	if st.Sent > 1150 {
		t.Fatalf("sent %d, warmup traffic leaked into stats", st.Sent)
	}
	if st.Sent < 850 {
		t.Fatalf("sent %d, measured window too small", st.Sent)
	}
}

func TestNexusBeatsBaselines(t *testing.T) {
	// Multiple model sessions driven well past what the baselines can
	// serve on 2 GPUs with tight SLOs: Nexus's coordinated runtime should
	// deliver more goodput than Clipper/TF.
	run := func(sys System) float64 {
		d, err := New(Config{System: sys, Features: AllFeatures(), GPUs: 2, Seed: 7,
			Epoch: 10 * time.Second, FixedCluster: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range []string{model.ResNet50, model.InceptionV3, model.GoogLeNetCar} {
			if err := d.AddSession(globalsched.SessionSpec{
				ID:      fmt.Sprintf("s%d", i),
				ModelID: m, SLO: 50 * time.Millisecond, ExpectedRate: 700,
			}, workload.Poisson{Rate: 700}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		return d.Goodput(20 * time.Second)
	}
	nexus := run(Nexus)
	clipper := run(Clipper)
	tf := run(TFServing)
	if nexus <= clipper || nexus <= tf {
		t.Fatalf("goodput: nexus=%.0f clipper=%.0f tf=%.0f; nexus should win", nexus, clipper, tf)
	}
}

func TestQueryEndToEnd(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 8, Seed: 3, Epoch: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := &queryopt.Query{
		Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 2, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
			{Gamma: 0.5, Child: &queryopt.Node{Name: "face", ModelID: model.VGGFace}},
		}},
	}
	if err := d.AddQuery(globalsched.QuerySpec{Query: q, ExpectedRate: 40}, nil); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	qs := d.QueryStats("traffic")
	if qs.Sent < 1000 {
		t.Fatalf("only %d queries sent", qs.Sent)
	}
	if bad > 0.02 {
		t.Fatalf("query bad rate %.4f", bad)
	}
	// Fan-out: car stage should see ~2x the root invocations, face ~0.5x.
	det := d.Recorder.Session("traffic/det").Sent
	car := d.Recorder.Session("traffic/car").Sent
	face := d.Recorder.Session("traffic/face").Sent
	if det == 0 {
		t.Fatal("no root stage invocations recorded")
	}
	carRatio := float64(car) / float64(det)
	faceRatio := float64(face) / float64(det)
	if carRatio < 1.8 || carRatio > 2.2 {
		t.Fatalf("car fan-out ratio %.2f, want ~2", carRatio)
	}
	if faceRatio < 0.4 || faceRatio > 0.6 {
		t.Fatalf("face fan-out ratio %.2f, want ~0.5", faceRatio)
	}
}

func TestElasticScalingOnBurst(t *testing.T) {
	// Figure 13 in miniature: a burst raises GPU usage; subsiding load
	// releases GPUs.
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 32, Seed: 5, Epoch: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// A ~3x burst, the magnitude of the paper's Figure 13 swings.
	sched := workload.Burst(800, 2400, 30*time.Second, 60*time.Second)
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.InceptionV3, SLO: 100 * time.Millisecond, ExpectedRate: 800,
	}, workload.Modulated{RateAt: sched.RateAt}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Average GPUs during the burst window must exceed the before/after
	// windows.
	avg := func(from, to int) float64 {
		var sum float64
		for i := from; i < to; i++ {
			sum += d.GPUsUsed.Mean(i)
		}
		return sum / float64(to-from)
	}
	before := avg(15, 30)
	during := avg(40, 60)
	after := avg(85, 100)
	if during <= before {
		t.Fatalf("no scale-up: before=%.1f during=%.1f", before, during)
	}
	if after >= during {
		t.Fatalf("no scale-down: during=%.1f after=%.1f", during, after)
	}
	// Overall bad rate should still be small (most intervals fine; the
	// epoch lag causes brief spikes, as in the paper).
	if bad := d.BadRate(); bad > 0.08 {
		t.Fatalf("bad rate %.4f too high across burst", bad)
	}
}

func TestMaxGoodputSearch(t *testing.T) {
	// Smoke-test the §7 methodology: binary search the max rate served
	// with 99% goodness.
	eval := func(rate float64) float64 {
		d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 1, Seed: 2, Epoch: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddSession(globalsched.SessionSpec{
			ID: "s", ModelID: model.InceptionV3, SLO: 100 * time.Millisecond, ExpectedRate: rate,
		}, nil); err != nil {
			t.Fatal(err)
		}
		bad, err := d.Run(10 * time.Second)
		if err != nil {
			// Pool exhausted: the offered rate exceeds the cluster.
			return 1
		}
		return bad
	}
	got := metrics.MaxGoodput(10, 4000, metrics.GoodputTarget, 0.05, eval)
	// One 1080Ti running InceptionV3 at batch ~45: ~600-1000 r/s.
	if got < 300 || got > 2000 {
		t.Fatalf("max goodput %.0f r/s outside plausible range", got)
	}
}

func TestGoodputAndBadRateMath(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Recorder.Session("x")
	s.Sent, s.Completed, s.Missed, s.Dropped = 100, 90, 5, 10
	qs := d.QueryStats("q")
	qs.Sent, qs.Completed, qs.Missed = 50, 50, 10
	wantBad := float64(10+5+10) / 150
	if got := d.BadRate(); got != wantBad {
		t.Fatalf("BadRate = %v, want %v", got, wantBad)
	}
	wantGood := float64(85+40) / 10
	if got := d.Goodput(10 * time.Second); got != wantGood {
		t.Fatalf("Goodput = %v, want %v", got, wantGood)
	}
}
