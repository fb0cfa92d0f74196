package backend

import (
	"errors"
	"testing"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
)

func configureUnit(t *testing.T, h *harness) {
	t.Helper()
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	h.clock.RunUntil(time.Second) // model load
}

func TestEnqueueSentinelErrors(t *testing.T) {
	h := newHarness(t, Config{Overlap: true, MaxQueue: 2}, gpusim.Exclusive)
	configureUnit(t, h)
	deadline := h.clock.Now() + time.Hour
	if err := h.backend.Enqueue(h.backend.Slot("ghost"), Request{ID: 1, Deadline: deadline}); !errors.Is(err, ErrUnitRemoved) {
		t.Fatalf("unknown unit error = %v, want ErrUnitRemoved", err)
	}
	// Fill the bounded queue without letting the clock drain it (the first
	// request may go straight to the GPU, so push until the bound bites).
	var full error
	for i := 0; i < 10 && full == nil; i++ {
		full = h.backend.Enqueue(h.backend.Slot("u"), Request{ID: uint64(10 + i), Deadline: deadline})
	}
	if !errors.Is(full, ErrQueueFull) {
		t.Fatalf("full queue error = %v, want ErrQueueFull", full)
	}
	h.backend.Fail()
	if err := h.backend.Enqueue(h.backend.Slot("u"), Request{ID: 13, Deadline: deadline}); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("dead backend error = %v, want ErrBackendDown", err)
	}
}

func TestFailDrainsQueueAsFailures(t *testing.T) {
	h := newHarness(t, Config{Overlap: true}, gpusim.Exclusive)
	configureUnit(t, h)
	deadline := h.clock.Now() + time.Hour
	for i := 0; i < 5; i++ {
		if err := h.backend.Enqueue(h.backend.Slot("u"), Request{ID: uint64(i), Deadline: deadline}); err != nil {
			t.Fatal(err)
		}
	}
	h.backend.Fail()
	h.clock.Run()
	if h.dropped != 5 {
		t.Fatalf("dropped = %d, want all 5 queued requests lost", h.dropped)
	}
	if h.backend.Alive() {
		t.Fatal("backend alive after Fail")
	}
	if err := h.backend.Configure([]Unit{{ID: "u2", Profile: testUnitProfile(), TargetBatch: 8}}); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("Configure on dead backend = %v, want ErrBackendDown", err)
	}
}

func TestStaleIncarnationCompletionsAreFailures(t *testing.T) {
	h := newHarness(t, Config{Overlap: true}, gpusim.Exclusive)
	configureUnit(t, h)
	deadline := h.clock.Now() + time.Hour
	if err := h.backend.Enqueue(h.backend.Slot("u"), Request{ID: 1, Deadline: deadline}); err != nil {
		t.Fatal(err)
	}
	// Let the batch reach the GPU, then crash mid-execution: the completion
	// belongs to the old incarnation and must surface as a failure, not a
	// success on the restarted node.
	h.clock.RunUntil(h.clock.Now() + time.Millisecond)
	h.backend.Fail()
	h.backend.Restart()
	h.clock.Run()
	if h.good != 0 || h.dropped != 1 {
		t.Fatalf("good=%d dropped=%d, want the in-flight request lost", h.good, h.dropped)
	}
}

func TestRestartRejoinsEmpty(t *testing.T) {
	h := newHarness(t, Config{Overlap: true}, gpusim.Exclusive)
	configureUnit(t, h)
	h.backend.Fail()
	if h.backend.Restart(); !h.backend.Alive() {
		t.Fatal("backend dead after Restart")
	}
	// A restarted node lost its units; it serves again only after the
	// control plane reconfigures it.
	if err := h.backend.Enqueue(h.backend.Slot("u"), Request{ID: 1, Deadline: time.Hour}); !errors.Is(err, ErrUnitRemoved) {
		t.Fatalf("enqueue after restart = %v, want ErrUnitRemoved", err)
	}
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	h.clock.RunUntil(h.clock.Now() + time.Second)
	if err := h.backend.Enqueue(h.backend.Slot("u"), Request{ID: 2, Arrival: h.clock.Now(), Deadline: h.clock.Now() + time.Hour}); err != nil {
		t.Fatal(err)
	}
	h.clock.Run()
	if h.good != 1 {
		t.Fatalf("good = %d, want the post-restart request served", h.good)
	}
}

func TestHeartbeatEmitsOnlyWhileAlive(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	be := New("b", clock, dev, Config{}, nil)
	var beats []time.Duration
	be.StartHeartbeat(100*time.Millisecond, func(id string) {
		if id != "b" {
			t.Fatalf("beat from %q", id)
		}
		beats = append(beats, clock.Now())
	})
	clock.RunUntil(350 * time.Millisecond)
	if len(beats) != 3 {
		t.Fatalf("beats while alive = %d, want 3", len(beats))
	}
	be.Fail()
	clock.RunUntil(time.Second)
	if len(beats) != 3 {
		t.Fatalf("dead backend kept beating: %d beats", len(beats))
	}
	be.StopHeartbeat()
	clock.Run() // terminates only because the ticker is stopped
}

func TestOutcomeTaxonomy(t *testing.T) {
	if OK.Bad() {
		t.Fatal("OK classified bad")
	}
	for _, o := range []Outcome{DropDeadline, DropReconfig, DropOverload, DropUnroutable, DropFailure} {
		if !o.Bad() {
			t.Fatalf("%v classified good", o)
		}
	}
	if OK.String() != "ok" || DropFailure.String() != "failure" || DropOverload.String() != "overload" {
		t.Fatal("outcome names changed; traces and tables depend on them")
	}
}
