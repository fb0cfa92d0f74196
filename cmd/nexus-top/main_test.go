package main

import (
	"strings"
	"testing"
	"time"

	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// snap builds a snapshot with the counters/gauges the dashboard reads.
func snap(at time.Duration, good float64) telemetry.Snapshot {
	return snapExemplar(at, good, 0)
}

// snapExemplar is snap with the exec window's exemplar request ID set.
func snapExemplar(at time.Duration, good float64, exemplar uint64) telemetry.Snapshot {
	return telemetry.NewSnapshot(at,
		map[string]float64{
			"sched_epochs_total":                                2,
			"sched_sessions_moved_total":                        1,
			telemetry.Key("session_sent_total", "session", "s"): good + 10,
			telemetry.Key("session_good_total", "session", "s"): good,
			telemetry.Key("session_bad_total", "session", "s"):  10,
		},
		map[string]float64{
			"sched_gpus_allocated":                                 3,
			"sched_gpus_demanded":                                  4,
			"cluster_gpus_capacity":                                8,
			telemetry.Key("backend_up", "backend", "be0"):          1,
			telemetry.Key("backend_duty", "backend", "be0"):        0.5,
			telemetry.Key("backend_queue_depth", "backend", "be0"): 7,
			telemetry.Key("backend_batch_size", "backend", "be0"):  4,
		},
		map[string]telemetry.WindowStats{
			telemetry.Key("backend_exec_ms", "backend", "be0"): {Count: 12, MeanMS: 20, P50MS: 19, P99MS: 30, MaxMS: 31, ExemplarID: exemplar},
		})
}

func TestRenderFrame(t *testing.T) {
	snaps := []telemetry.Snapshot{snap(time.Second, 100), snap(2*time.Second, 220)}
	alerts := []telemetry.Alert{
		{At: 1500 * time.Millisecond, AtMS: 1500, Rule: "slo-burn-rate", Target: "s", State: "firing", Value: 9.9},
	}
	out := renderFrame(snaps, alerts, nil)

	for _, want := range []string{
		"t=2.0s",
		"gpus=3/8 (demand 4)",
		"SESSION",
		"s ", // session row
		"BACKEND",
		"be0",
		"up",
		"50.0",    // duty%
		"30.00ms", // exec p99
		"FIRING: slo-burn-rate(s)",
		"firing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Goodput over the 1s between snapshots: (220-100)/1 = 120.
	if !strings.Contains(out, "120.0") {
		t.Errorf("want goodput 120.0 in frame:\n%s", out)
	}
	// Attainment 220/(220+10) = 95.65%.
	if !strings.Contains(out, "95.65") {
		t.Errorf("want attainment 95.65 in frame:\n%s", out)
	}
}

func TestRenderFrameAlertsResolveAndClip(t *testing.T) {
	snaps := []telemetry.Snapshot{snap(3*time.Second, 100)}
	alerts := []telemetry.Alert{
		{At: 1 * time.Second, AtMS: 1000, Rule: "queue-saturation", Target: "be0", State: "firing"},
		{At: 2 * time.Second, AtMS: 2000, Rule: "queue-saturation", Target: "be0", State: "resolved"},
		// After the displayed snapshot time — must not appear.
		{At: 5 * time.Second, AtMS: 5000, Rule: "backend-flap", Target: "be1", State: "firing"},
	}
	out := renderFrame(snaps, alerts, nil)
	if strings.Contains(out, "FIRING:") {
		t.Errorf("resolved alert must clear the firing panel:\n%s", out)
	}
	if strings.Contains(out, "be1") {
		t.Errorf("future alert leaked into the frame:\n%s", out)
	}
	if !strings.Contains(out, "resolved") {
		t.Errorf("want the resolve transition in the recent-alerts list:\n%s", out)
	}
}

func TestRenderFrameSingleSnapshot(t *testing.T) {
	out := renderFrame([]telemetry.Snapshot{snap(time.Second, 50)}, nil, nil)
	// No previous snapshot: goodput column renders 0.0 without panicking.
	if !strings.Contains(out, "0.0") {
		t.Errorf("single-snapshot frame should render zero goodput:\n%s", out)
	}
}

// TestRenderFramePlanDiffPanel pins the plan-change panel: diffs up to the
// displayed time appear (clipped to the last three epochs), future diffs
// do not.
func TestRenderFramePlanDiffPanel(t *testing.T) {
	diffs := []trace.PlanDiffRecord{
		{Epoch: 1, AtMS: 500, Cause: "initial", Changes: []trace.PlanChange{
			{Kind: "unit-added", Session: "s", Unit: "u", Node: "plan-0"},
		}},
		{Epoch: 2, AtMS: 1500, Cause: "periodic", Changes: []trace.PlanChange{
			{Kind: "session-moved", Session: "s", Unit: "u", From: "plan-0", To: "plan-1"},
		}},
		// After the displayed snapshot time — must not appear.
		{Epoch: 3, AtMS: 9000, Cause: "recovery", Changes: []trace.PlanChange{
			{Kind: "replica-removed", Node: "plan-1", From: "be9"},
		}},
	}
	out := renderFrame([]telemetry.Snapshot{snap(2*time.Second, 100)}, nil, diffs)
	for _, want := range []string{"plan changes", "session-moved", "plan-0->plan-1", "unit-added"} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "replica-removed") {
		t.Errorf("future plan diff leaked into the frame:\n%s", out)
	}
}

// TestRenderFrameExemplar pins the EXEC p99 exemplar cell: a window
// carrying an exemplar request ID names it; one without renders a dash.
func TestRenderFrameExemplar(t *testing.T) {
	s := snap(time.Second, 50)
	out := renderFrame([]telemetry.Snapshot{s}, nil, nil)
	if !strings.Contains(out, "EXEMPLAR") {
		t.Fatalf("frame missing exemplar column:\n%s", out)
	}
	if strings.Contains(out, "req ") {
		t.Errorf("exemplar shown without an ID:\n%s", out)
	}
	out = renderFrame([]telemetry.Snapshot{snapExemplar(time.Second, 50, 4242)}, nil, nil)
	if !strings.Contains(out, "req 4242") {
		t.Errorf("frame missing exemplar req 4242:\n%s", out)
	}
}
