package forensics

import (
	"testing"
	"time"

	"nexus/internal/trace"
)

// BenchmarkFlightTrigger times one dump capture against a full 2^18-event
// span ring holding 20 s of traffic, so the default 5 s window captures a
// quarter of the ring. Each iteration triggers a fresh recorder; the ring
// is built once, outside the timed region.
func BenchmarkFlightTrigger(b *testing.B) {
	const ringCap = 1 << 18
	const span = 20 * time.Second
	tr := trace.New(ringCap)
	for i := 0; i < ringCap; i++ {
		tr.Record(&trace.Event{
			At: span * time.Duration(i) / ringCap, Kind: trace.Enqueue,
			ReqID: uint64(i), Session: "s", Backend: "be0", Unit: "u0",
		})
	}
	at := span
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := New(Config{})
		r.Trigger(at, alert("slo-burn-rate"), tr, nil)
		if n := len(r.Dumps()[0].Spans); n != ringCap/4 {
			b.Fatalf("captured %d spans, want %d", n, ringCap/4)
		}
	}
}
