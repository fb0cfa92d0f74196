package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ev(at int, kind Kind, req uint64) Event {
	return Event{At: time.Duration(at) * time.Millisecond, Kind: kind, ReqID: req, Session: "s"}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(ev(1, Arrive, 1)) // must not panic
	tr.SetFilter(func(Event) bool { return true })
	if tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should report nothing")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	New(0)
}

func TestRecordAndOrder(t *testing.T) {
	tr := New(10)
	tr.Record(ev(1, Arrive, 1))
	tr.Record(ev(2, Enqueue, 1))
	tr.Record(ev(3, Complete, 1))
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Kind != Arrive || got[2].Kind != Complete {
		t.Fatalf("order wrong: %+v", got)
	}
	if tr.Total() != 3 {
		t.Fatalf("Total = %d", tr.Total())
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New(3)
	for i := 0; i < 5; i++ {
		tr.Record(ev(i, Arrive, uint64(i)))
	}
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	// Oldest retained is event 2.
	if got[0].ReqID != 2 || got[2].ReqID != 4 {
		t.Fatalf("ring order wrong: %+v", got)
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
}

func TestFilter(t *testing.T) {
	tr := New(10)
	tr.SetFilter(func(e Event) bool { return e.Kind == Drop })
	tr.Record(ev(1, Arrive, 1))
	tr.Record(ev(2, Drop, 1))
	if len(tr.Events()) != 1 || tr.Events()[0].Kind != Drop {
		t.Fatalf("filter failed: %+v", tr.Events())
	}
}

// Filtered events must be discarded before touching the ring: they advance
// neither the write cursor nor the total, so rejected events can never
// evict retained ones or inflate the overwrite accounting.
func TestFilterDoesNotAdvanceRing(t *testing.T) {
	tr := New(3)
	tr.SetFilter(func(e Event) bool { return e.Kind != Drop })
	tr.Record(ev(0, Arrive, 0))
	tr.Record(ev(1, Arrive, 1))
	// A burst of filtered events between accepted ones.
	for i := 0; i < 10; i++ {
		tr.Record(ev(100+i, Drop, uint64(100+i)))
	}
	tr.Record(ev(2, Arrive, 2))
	if tr.Total() != 3 {
		t.Fatalf("Total = %d, want 3 (filtered events advanced total)", tr.Total())
	}
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	for i, e := range got {
		if e.ReqID != uint64(i) {
			t.Fatalf("filtered events perturbed the ring: %+v", got)
		}
	}

	// Now wrap the ring past capacity with interleaved rejects: accepted
	// events alone determine eviction order.
	for i := 3; i < 7; i++ {
		tr.Record(ev(200, Drop, 999)) // rejected
		tr.Record(ev(i, Arrive, uint64(i)))
	}
	got = tr.Events()
	if tr.Total() != 7 || len(got) != 3 {
		t.Fatalf("after wrap: total=%d retained=%d", tr.Total(), len(got))
	}
	if got[0].ReqID != 4 || got[1].ReqID != 5 || got[2].ReqID != 6 {
		t.Fatalf("wraparound order wrong with filter active: %+v", got)
	}
}

func TestByRequestAndLatency(t *testing.T) {
	tr := New(16)
	tr.Record(ev(10, Arrive, 7))
	tr.Record(ev(11, Enqueue, 7))
	tr.Record(ev(12, Arrive, 8))
	tr.Record(ev(25, Complete, 7))
	byReq := tr.ByRequest()
	if len(byReq[7]) != 3 || len(byReq[8]) != 1 {
		t.Fatalf("ByRequest = %v", byReq)
	}
	lat := tr.RequestLatency()
	if lat[7] != 15*time.Millisecond {
		t.Fatalf("latency = %v", lat[7])
	}
	if _, ok := lat[8]; ok {
		t.Fatal("incomplete request should have no latency")
	}
}

// ByRequest must preserve chronological order within each request even when
// the ring has wrapped and the oldest retained events sit mid-buffer.
func TestByRequestOrderingUnderWraparound(t *testing.T) {
	tr := New(6)
	// Request 1's lifecycle interleaved with filler; capacity 6 retains
	// only the last 6 of 9 events.
	tr.Record(ev(0, Arrive, 1))
	tr.Record(ev(1, Arrive, 50))
	tr.Record(ev(2, Arrive, 51))
	tr.Record(ev(3, Route, 1))
	tr.Record(ev(4, Enqueue, 1))
	tr.Record(ev(5, Arrive, 52))
	tr.Record(ev(6, Execute, 1))
	tr.Record(ev(7, Arrive, 53))
	tr.Record(ev(8, Complete, 1))
	byReq := tr.ByRequest()
	got := byReq[1]
	wantKinds := []Kind{Route, Enqueue, Execute, Complete} // Arrive evicted
	if len(got) != len(wantKinds) {
		t.Fatalf("req 1 events = %+v", got)
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("req 1 out of order at %d: got %s want %s (%+v)", i, got[i].Kind, k, got)
		}
		if i > 0 && got[i].At <= got[i-1].At {
			t.Fatalf("req 1 timestamps not increasing: %+v", got)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	tr := New(4)
	tr.Record(Event{At: time.Millisecond, Kind: Execute, ReqID: 1, Backend: "be0", Unit: "u",
		Batch: 8, Dur: 2500 * time.Microsecond, Inc: 3})
	tr.Record(Event{At: 7*time.Millisecond + 123*time.Nanosecond, Kind: Drop, ReqID: 2,
		Session: "s", Batch: 0, Cause: "deadline"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 {
		t.Fatalf("round trip = %+v", decoded)
	}
	for i, want := range tr.Events() {
		if decoded[i] != want {
			t.Fatalf("event %d: got %+v want %+v", i, decoded[i], want)
		}
	}
}

// The wire schema must emit milliseconds with explicit units, and batch
// must not carry omitempty: a batch-size-0 early-drop record has to stay
// distinguishable from an unset field.
func TestJSONSchemaMillisecondsAndBatch(t *testing.T) {
	e := Event{At: 1500 * time.Microsecond, Kind: Drop, ReqID: 9, Session: "s",
		Batch: 0, Cause: "deadline"}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if at, ok := doc["at_ms"].(float64); !ok || at != 1.5 {
		t.Fatalf("at_ms = %v, want 1.5 (%s)", doc["at_ms"], raw)
	}
	if _, ok := doc["at"]; ok {
		t.Fatalf("raw nanosecond field still present: %s", raw)
	}
	if _, ok := doc["batch"]; !ok {
		t.Fatalf("batch omitted at zero: %s", raw)
	}
}

func TestFromMSRoundTripExact(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 999, time.Microsecond,
		1500*time.Microsecond + 7, time.Second, 3*time.Hour + 11} {
		if got := FromMS(MS(d)); got != d {
			t.Fatalf("FromMS(MS(%v)) = %v", d, got)
		}
	}
}

func TestWriteText(t *testing.T) {
	tr := New(8)
	tr.Record(ev(1, Arrive, 1))
	tr.Record(Event{At: 2 * time.Millisecond, Kind: Execute, ReqID: 1, Backend: "be0", Unit: "u", Batch: 4})
	tr.Record(Event{At: 3 * time.Millisecond, Kind: Drop, ReqID: 2, Session: "s", Cause: "deadline"})
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"arrive", "batch=4", "cause=deadline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryAndSessions(t *testing.T) {
	tr := New(8)
	tr.Record(Event{Kind: Arrive, Session: "b"})
	tr.Record(Event{Kind: Arrive, Session: "a"})
	tr.Record(Event{Kind: Drop, Session: "a"})
	sum := tr.Summary()
	if sum[Arrive] != 2 || sum[Drop] != 1 {
		t.Fatalf("summary = %v", sum)
	}
	got := tr.Sessions()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("sessions = %v", got)
	}
}

// Property: after any sequence of records, Events() returns at most
// capacity events, in non-decreasing record order (by sequence of
// insertion), and Total counts every record.
func TestPropertyRing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := rng.Intn(16) + 1
		n := rng.Intn(100)
		tr := New(capn)
		for i := 0; i < n; i++ {
			tr.Record(ev(i, Arrive, uint64(i)))
		}
		got := tr.Events()
		if tr.Total() != uint64(n) {
			return false
		}
		want := n
		if want > capn {
			want = capn
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].ReqID != got[i-1].ReqID+1 {
				return false
			}
		}
		// The newest event must be the last recorded.
		if n > 0 && got[len(got)-1].ReqID != uint64(n-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a filter active, the ring behaves exactly as if rejected
// events were never offered — same retained set, same total.
func TestPropertyFilterTransparent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := rng.Intn(8) + 1
		n := rng.Intn(80)
		filtered := New(capn)
		filtered.SetFilter(func(e Event) bool { return e.Kind == Arrive })
		plain := New(capn)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e := ev(i, Arrive, uint64(i))
				filtered.Record(e)
				plain.Record(e)
			} else {
				filtered.Record(ev(i, Drop, uint64(i))) // rejected
			}
		}
		if filtered.Total() != plain.Total() {
			return false
		}
		a, b := filtered.Events(), plain.Events()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Window(from, to) equals filtering Events() by from <= At <= to
// — at random capacities, before and after wraparound, under a SetFilter
// predicate, and with events recorded (some through Reserve) out of At
// order. The result is exactly sized, nil when nothing matches, and Len
// agrees with Events.
func TestPropertyWindowMatchesEvents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := rng.Intn(24) + 1
		n := rng.Intn(4 * capn)
		tr := New(capn)
		if rng.Intn(2) == 0 {
			tr.SetFilter(func(e Event) bool { return e.Kind != Drop })
		}
		for i := 0; i < n; i++ {
			// Timestamps jitter backwards as well as forwards.
			e := ev(i+rng.Intn(9)-4, Arrive, uint64(i))
			if rng.Intn(4) == 0 {
				e.Kind = Drop
			}
			if rng.Intn(3) == 0 {
				*tr.Reserve() = e
			} else {
				tr.Record(e)
			}
		}
		all := tr.Events()
		if tr.Len() != len(all) {
			return false
		}
		for q := 0; q < 8; q++ {
			from := time.Duration(rng.Intn(n+10)-5) * time.Millisecond
			to := from + time.Duration(rng.Intn(n/2+3)-1)*time.Millisecond
			var want []Event
			for _, e := range all {
				if e.At >= from && e.At <= to {
					want = append(want, e)
				}
			}
			got := tr.Window(from, to)
			if len(want) == 0 {
				if got != nil {
					return false
				}
				continue
			}
			if len(got) != len(want) || cap(got) != len(got) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	var nilTracer *Tracer
	if nilTracer.Window(0, time.Hour) != nil || nilTracer.Len() != 0 {
		t.Fatal("nil tracer must have an empty window")
	}
}
