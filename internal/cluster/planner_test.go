package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/runner"
)

// plannerGolden runs a small mixed deployment under a given control-plane
// configuration and serializes everything the epoch planner could perturb:
// the final plan, every frontend routing table, and the audit placement
// log.
func plannerGolden(t *testing.T, workers int, hysteresis float64, delta bool) []byte {
	t.Helper()
	prev := runner.SetDefaultWorkers(workers)
	defer runner.SetDefaultWorkers(prev)
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 12, Seed: 42,
		Epoch: 10 * time.Second, Audit: true,
		PlanHysteresis: hysteresis, DeltaRouting: delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	models := []string{model.ResNet50, model.GoogLeNetCar, model.Darknet53}
	for i := 0; i < 6; i++ {
		if err := d.AddSession(globalsched.SessionSpec{
			ID:           fmt.Sprintf("s%d", i),
			ModelID:      models[i%len(models)],
			SLO:          time.Duration(100+50*(i%3)) * time.Millisecond,
			ExpectedRate: 40 + 25*float64(i%4),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(d.Sched.Plan()); err != nil {
		t.Fatal(err)
	}
	for _, fe := range d.Frontends {
		if err := enc.Encode(fe.TableSnapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Audit().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlannerDeterminism is the control plane's golden contract, run under
// -race in CI: with plan hysteresis and delta routing on, output is
// byte-identical across repeated runs and across runner worker counts —
// parallelism must never leak into what the planner decides. (That the
// planner equals Pack followed by chained Incremental calls is checked in
// internal/scheduler.)
func TestPlannerDeterminism(t *testing.T) {
	base := plannerGolden(t, 1, 0.05, true)
	if again := plannerGolden(t, 1, 0.05, true); !bytes.Equal(base, again) {
		t.Fatal("output differs across identical serial runs")
	}
	for _, workers := range []int{2, 8} {
		if par := plannerGolden(t, workers, 0.05, true); !bytes.Equal(base, par) {
			t.Fatalf("output differs between workers=1 and workers=%d", workers)
		}
	}
}
