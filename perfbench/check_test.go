package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/metrics"
)

// smallGame builds and runs a small game deployment: a real stat set in
// well under a second.
func smallGame(t *testing.T, seed int64) *simJob {
	t.Helper()
	j := &simJob{window: 3 * time.Second}
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 2, Seed: seed, FixedCluster: true, OnEpoch: j.onEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.d = d
	if err := j.deploy(apps.Game(2, 200)); err != nil {
		t.Fatal(err)
	}
	if err := j.call(); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestConservedAcceptsRealStats(t *testing.T) {
	j := smallGame(t, 3)
	total := j.d.Recorder.Total()
	if total.Sent == 0 {
		t.Fatal("small game resolved no requests")
	}
	if err := conserved("total", total); err != nil {
		t.Fatal(err)
	}
	for _, id := range j.d.Recorder.SessionIDs() {
		if err := conserved(id, j.d.Recorder.Session(id)); err != nil {
			t.Error(err)
		}
	}
}

func TestConservedRejectsDoctoredStats(t *testing.T) {
	real := *smallGame(t, 3).d.Recorder.Total()
	for name, doctor := range map[string]func(s *metrics.SessionStats){
		"request left in flight":  func(s *metrics.SessionStats) { s.Sent++ },
		"completion from nowhere": func(s *metrics.SessionStats) { s.Completed++ },
		"uncounted loss cause":    func(s *metrics.SessionStats) { s.Failed++ },
		"more late than done":     func(s *metrics.SessionStats) { s.Missed = s.Completed + 1; s.Sent += s.Missed },
	} {
		s := real
		doctor(&s)
		if err := conserved("doctored", &s); err == nil {
			t.Errorf("%s: doctored stats %+v accepted", name, s)
		}
	}
}

func TestCheckAndDigest(t *testing.T) {
	a, err := smallGame(t, 5).check(false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallGame(t, 5).check(false)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("same seed, different digests: %s vs %s", a.digest, b.digest)
	}
	if a.attempted == 0 || a.items < a.attempted {
		t.Errorf("attempted %d, items %d", a.attempted, a.items)
	}
	c, err := smallGame(t, 6).check(false)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Errorf("seeds 5 and 6 share digest %s", a.digest)
	}

	// A request the recorder saw sent but never resolved fails the check.
	j := smallGame(t, 5)
	j.d.Recorder.Session(j.loads[0]).Sent++
	if _, err := j.check(false); err == nil || !strings.Contains(err.Error(), "sent") {
		t.Errorf("check passed a lost request: %v", err)
	}
}

func TestPlanCheckRejectsBadPlan(t *testing.T) {
	jb, err := buildPlan10k(1)
	if err != nil {
		t.Fatal(err)
	}
	j := jb.(*planJob)
	// A small slice of the input keeps the test fast.
	j.sessions = j.sessions[:200]
	if err := j.call(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.check(false); err != nil {
		t.Fatal(err)
	}
	// Dropping a node leaves sessions unserved: ValidatePlan must object.
	j.plan.GPUs = j.plan.GPUs[1:]
	if _, err := j.check(false); err == nil {
		t.Error("plan with a node removed passed the check")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// metrics it declares are exactly the ones each mode prints, with the
// same units, and its workloads are the program's.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}
