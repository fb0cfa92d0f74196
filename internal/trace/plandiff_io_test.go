package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestAuditPlanDiffAndChaosRoundTrip(t *testing.T) {
	a := NewAudit()
	a.RecordChaos(ChaosRecord{AtMS: 9000, Kind: "outage", Backend: "be0", To: "down"})
	a.RecordPlanDiff(PlanDiffRecord{
		Epoch: 2, AtMS: 10000, Cause: "recovery", SessionsMoved: 1,
		Changes: []PlanChange{{Kind: "replica-removed", Node: "plan-0", From: "be0"}},
	})
	if len(a.Chaos()) != 1 || len(a.PlanDiffs()) != 1 {
		t.Fatalf("accessors: chaos=%d diffs=%d, want 1/1", len(a.Chaos()), len(a.PlanDiffs()))
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAudit(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.PlanDiffs()) != 1 || back.PlanDiffs()[0].Cause != "recovery" {
		t.Fatalf("plan diffs did not survive the file round trip: %+v", back.PlanDiffs())
	}
	if len(back.Chaos()) != 1 || back.Chaos()[0].Backend != "be0" {
		t.Fatalf("chaos records did not survive the file round trip: %+v", back.Chaos())
	}
	if _, err := ReadAudit(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt audit parsed without error")
	}
}

func TestAuditPlanDiffOverflowCounted(t *testing.T) {
	a := NewAudit()
	for i := 0; i < maxPlanDiffs+3; i++ {
		a.RecordPlanDiff(PlanDiffRecord{Epoch: i})
	}
	if len(a.PlanDiffs()) != maxPlanDiffs {
		t.Fatalf("log grew past its bound: %d", len(a.PlanDiffs()))
	}
	if a.diffsLost != 3 {
		t.Fatalf("diffsLost = %d, want 3", a.diffsLost)
	}
}

func TestNilAuditNoOps(t *testing.T) {
	var a *Audit
	a.RecordChaos(ChaosRecord{})
	a.RecordPlanDiff(PlanDiffRecord{})
	if a.Chaos() != nil || a.PlanDiffs() != nil {
		t.Fatal("nil audit retained state")
	}
}

func TestWritePlanDiffText(t *testing.T) {
	var sb strings.Builder
	pd := PlanDiffRecord{
		Epoch: 3, AtMS: 15000, Cause: "periodic", SessionsMoved: 2,
		PlanSkipped: true,
		Changes: []PlanChange{
			{Kind: "session-moved", Session: "s", Unit: "u", From: "plan-0", To: "plan-1"},
			{Kind: "rate-changed", Session: "s", Unit: "u", Node: "plan-1", Detail: "100 -> 130 rps"},
		},
	}
	if err := WritePlanDiffText(&sb, pd); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"epoch 3", "cause=periodic", "moved=2", "plan_skipped",
		"session-moved", "plan-0->plan-1", "rate-changed", "(100 -> 130 rps)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plan-diff text missing %q:\n%s", want, out)
		}
	}

	// A quiet decision renders its header with an explicit no-change marker.
	sb.Reset()
	if err := WritePlanDiffText(&sb, PlanDiffRecord{Epoch: 4, Cause: "periodic"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(no changes)") {
		t.Errorf("quiet diff missing the no-change marker: %q", sb.String())
	}
}

func TestAtMS(t *testing.T) {
	if got := AtMS(1500 * time.Millisecond); got != 1500 {
		t.Fatalf("AtMS(1.5s) = %v, want 1500", got)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("")); err == nil || !strings.Contains(err.Error(), "empty input") {
		t.Fatalf("empty input: %v", err)
	}
	if _, err := ReadJSON(strings.NewReader(`{"events":[{"at_ms":1`)); err == nil {
		t.Fatal("truncated input parsed without error")
	}
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage parsed without error")
	}
}
