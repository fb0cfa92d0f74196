package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// randomSnapshotMaps draws a snapshot's value maps with awkward keys
// (quotes, backslashes, HTML characters, non-ASCII, prefix-sharing
// families) and awkward floats (tiny, huge, negative zero, integral).
func randomSnapshotMaps(rng *rand.Rand) (map[string]float64, map[string]float64, map[string]WindowStats) {
	names := []string{"m", "m_x", "m_", "session_good_total", "q<&>", "é", `a\b`}
	values := []string{"be0", `x"y`, "<tag>", "ü", "a,b", ""}
	key := func() string {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(3) {
		case 0:
			return name
		case 1:
			return Key(name, "backend", values[rng.Intn(len(values))])
		}
		return Key(name, "session", values[rng.Intn(len(values))], "cause", values[rng.Intn(len(values))])
	}
	float := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.Intn(1e6))
		case 3:
			return rng.Float64() * 1e-8
		case 4:
			return -rng.Float64() * 1e25
		case 5:
			return 1e21
		}
		return rng.NormFloat64() * 1e3
	}
	fill := func() map[string]float64 {
		m := map[string]float64{}
		for n := rng.Intn(12); n > 0; n-- {
			m[key()] = float()
		}
		return m
	}
	windows := map[string]WindowStats{}
	for n := rng.Intn(6); n > 0; n-- {
		ws := WindowStats{Count: uint64(rng.Intn(1000)), MeanMS: float(), P50MS: float(), P99MS: float(), MaxMS: float()}
		if rng.Intn(2) == 0 {
			ws.ExemplarID = rng.Uint64()
		}
		windows[key()] = ws
	}
	return fill(), fill(), windows
}

// TestSnapshotJSONMatchesEncodingJSON is the wire-format contract: the
// table-backed encoder writes exactly the bytes encoding/json writes for
// the map-shaped snapshot, through MarshalJSON, through a json.Encoder
// (as dump bundles embed snapshots), and through WriteSnapshotsJSONL; and
// reading the bytes back yields the same values.
func TestSnapshotJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		c, g, w := randomSnapshotMaps(rng)
		at := time.Duration(rng.Int63n(int64(time.Hour)))
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&snapshotJSON{AtMS: MS(at), Counters: c, Gauges: g, Windows: w}); err != nil {
			t.Fatal(err)
		}
		s := NewSnapshot(at, c, g, w)
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != want.String() {
			t.Fatalf("MarshalJSON:\n got %s\nwant %s", got, want.String())
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(&s); err != nil {
			t.Fatal(err)
		}
		var jsonl bytes.Buffer
		if err := WriteSnapshotsJSONL(&jsonl, []Snapshot{s}); err != nil {
			t.Fatal(err)
		}
		if enc.String() != want.String() || jsonl.String() != want.String() {
			t.Fatalf("encoder paths differ:\n enc %s jsonl %s want %s", enc.String(), jsonl.String(), want.String())
		}
		back, err := ReadSnapshotsJSONL(&jsonl)
		if err != nil || len(back) != 1 {
			t.Fatalf("read back: %v (%d snapshots)", err, len(back))
		}
		for k, v := range c {
			if got, ok := back[0].Counter(k); !ok || got != v {
				t.Fatalf("counter %q = %v %v after round trip, want %v", k, got, ok, v)
			}
		}
		for k, v := range g {
			if got, ok := back[0].Gauge(k); !ok || got != v {
				t.Fatalf("gauge %q = %v %v after round trip, want %v", k, got, ok, v)
			}
		}
		for k, v := range w {
			if got, ok := back[0].Window(k); !ok || got != v {
				t.Fatalf("window %q = %+v %v after round trip, want %+v", k, got, ok, v)
			}
		}
	}
}

func TestSnapshotJSONRejectsNaN(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := NewSnapshot(time.Second, map[string]float64{"c": v}, nil, nil)
		if _, err := s.MarshalJSON(); err == nil {
			t.Errorf("%v encoded without error", v)
		}
		s = NewSnapshot(time.Second, nil, nil, map[string]WindowStats{"w": {P99MS: v}})
		if _, err := s.MarshalJSON(); err == nil {
			t.Errorf("window %v encoded without error", v)
		}
	}
}

// TestSnapshotKeysFamilyInterleave pins family ranges when a longer family
// name sorts between two keys of a shorter one ("m" < "m_x{..}" < "m{..}").
func TestSnapshotKeysFamilyInterleave(t *testing.T) {
	s := NewSnapshot(time.Second, map[string]float64{
		"m": 1, Key("m_x", "id", "a"): 2, Key("m", "id", "b"): 3, "n": 4,
	}, map[string]float64{Key("m", "id", "a"): 5}, nil)
	if got, want := fmt.Sprint(s.Keys("m")), fmt.Sprint([]string{"m", `m{id="a"}`, `m{id="b"}`}); got != want {
		t.Errorf("Keys(m) = %s, want %s", got, want)
	}
	if got := s.Keys("m_x"); len(got) != 1 || got[0] != `m_x{id="a"}` {
		t.Errorf("Keys(m_x) = %v", got)
	}
	if got := s.Keys("absent"); len(got) != 0 {
		t.Errorf("Keys(absent) = %v", got)
	}
	var empty Snapshot
	if _, ok := empty.Counter("m"); ok {
		t.Error("zero snapshot has a counter")
	}
	if _, ok := empty.Window("m"); ok || len(empty.Keys("m")) != 0 {
		t.Error("zero snapshot has keys")
	}
}

// TestRegistrySharesKeyTable checks the copy-on-register contract: samples
// between registrations share one table, a registration gives later
// samples a new one, and earlier snapshots keep reading their own values.
func TestRegistrySharesKeyTable(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	a.Set(1)
	s1 := r.Sample(time.Second)
	a.Set(2)
	s2 := r.Sample(2 * time.Second)
	if s1.tab != s2.tab {
		t.Fatal("samples without a registration in between must share the key table")
	}
	r.Counter("b").Set(7)
	a.Set(3)
	s3 := r.Sample(3 * time.Second)
	if s3.tab == s2.tab {
		t.Fatal("a registration must give later samples a new key table")
	}
	if v, _ := s1.Counter("a"); v != 1 {
		t.Errorf("old snapshot reads a = %v, want 1", v)
	}
	if _, ok := s2.Counter("b"); ok {
		t.Error("old snapshot grew a key")
	}
	// Deltas and transitions bridge the table change by key.
	h := &History{snaps: []Snapshot{s1, s2, s3}}
	if d, ok := h.CounterDelta("a", 2*time.Second); !ok || d != 2 {
		t.Errorf("delta across tables = %v %v, want 2", d, ok)
	}
	if d, ok := h.CounterDelta("b", 2*time.Second); !ok || d != 7 {
		t.Errorf("delta of a key the old snapshot lacks = %v %v, want 7", d, ok)
	}
}

// TestTransitionsKeyAbsentFromLatest counts flips of a gauge the latest
// snapshot no longer carries, bridging by key lookups.
func TestTransitionsKeyAbsentFromLatest(t *testing.T) {
	h := &History{}
	for i, v := range []float64{1, 0, 1} {
		h.snaps = append(h.snaps, snapAt(time.Duration(i)*time.Second, nil, map[string]float64{"up": v}, nil))
	}
	h.snaps = append(h.snaps, snapAt(3*time.Second, nil, map[string]float64{"other": 1}, nil))
	if n := h.Transitions("up", time.Minute); n != 2 {
		t.Errorf("transitions = %d, want 2", n)
	}
	if n := (&History{}).Transitions("up", time.Minute); n != 0 {
		t.Errorf("empty history transitions = %d", n)
	}
}

// writePrometheusMaps is the map-based exporter the key-table exporter
// replaced, kept as the byte-level oracle.
func writePrometheusMaps(counters, gauges map[string]float64, windows map[string]WindowStats, atMS float64) string {
	var b strings.Builder
	families := func(values map[string]float64, typ string) {
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		lastFam := ""
		for _, k := range keys {
			fam, labels := splitKey(k)
			if fam != lastFam {
				fmt.Fprintf(&b, "# TYPE %s%s %s\n", promPrefix, fam, typ)
				lastFam = fam
			}
			fmt.Fprintf(&b, "%s%s%s %s\n", promPrefix, fam, labels, formatValue(values[k]))
		}
	}
	families(counters, "counter")
	families(gauges, "gauge")
	if len(windows) > 0 {
		flat := map[string]float64{}
		for k, ws := range windows {
			fam, labels := splitKey(k)
			flat[fam+"_count"+labels] = float64(ws.Count)
			flat[fam+"_mean"+labels] = ws.MeanMS
			flat[fam+"_p50"+labels] = ws.P50MS
			flat[fam+"_p99"+labels] = ws.P99MS
		}
		families(flat, "gauge")
	}
	fmt.Fprintf(&b, "# HELP %ssnapshot_at_ms virtual time of this snapshot\n", promPrefix)
	fmt.Fprintf(&b, "# TYPE %ssnapshot_at_ms gauge\n", promPrefix)
	fmt.Fprintf(&b, "%ssnapshot_at_ms %s\n", promPrefix, formatValue(atMS))
	return b.String()
}

func TestWritePrometheusMatchesMapExporter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		c, g, w := randomSnapshotMaps(rng)
		s := NewSnapshot(time.Duration(iter)*time.Second, c, g, w)
		var got bytes.Buffer
		if err := WritePrometheus(&got, &s); err != nil {
			t.Fatal(err)
		}
		if want := writePrometheusMaps(c, g, w, s.AtMS); got.String() != want {
			t.Fatalf("exposition differs:\n got %s\nwant %s", got.String(), want)
		}
	}
}

// TestEngineDuplicateTargets pins apply's tie rule: of duplicate targets
// in one evaluation, one firing is logged; rules sharing a name share
// their firing set.
func TestEngineDuplicateTargets(t *testing.T) {
	e := NewEngine(nil)
	e.apply("r", time.Second, []Violation{{Target: "b", Value: 1}, {Target: "a", Value: 2}, {Target: "b", Value: 1}})
	if got := e.Firing(); fmt.Sprint(got) != "[r(a) r(b)]" {
		t.Fatalf("firing = %v", got)
	}
	if n := len(e.Alerts()); n != 2 || e.Alerts()[0].Target != "a" || e.Alerts()[1].Target != "b" {
		t.Fatalf("log = %+v, want firing a then b", e.Alerts())
	}
	e.apply("r", 2*time.Second, []Violation{{Target: "b"}})
	if got := e.Alerts()[2]; got.Target != "a" || got.State != "resolved" {
		t.Fatalf("third transition = %+v, want a resolved", got)
	}
	e.apply("r", 3*time.Second, nil)
	if len(e.Firing()) != 0 || e.Alerts()[3].State != "resolved" {
		t.Fatalf("all-clear left %v firing", e.Firing())
	}
}

// TestLatestScrapeDuringRegistration reads the published snapshot from a
// scrape goroutine while the simulation side keeps registering
// instruments, rebuilding the key table, and ticking: a shared table must
// never change under a reader. Run it under -race.
func TestLatestScrapeDuringRegistration(t *testing.T) {
	c := NewCollector(Config{Rules: []Rule{}})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s, ok := c.Latest()
			if !ok {
				continue
			}
			var buf bytes.Buffer
			if err := WritePrometheus(&buf, &s); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.MarshalJSON(); err != nil {
				t.Error(err)
				return
			}
			for _, k := range s.Keys("hits") {
				s.Counter(k)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		c.Registry().Counter("hits", "n", strconv.Itoa(i%50)).Set(float64(i))
		c.Registry().Window("lat", "n", strconv.Itoa(i%7)).Observe(time.Duration(i) * time.Microsecond)
		c.Tick(time.Duration(i+1) * time.Millisecond)
	}
	close(done)
	wg.Wait()
	if last, _ := c.Latest(); len(last.Keys("hits")) != 50 {
		t.Fatalf("latest snapshot has %d hits keys, want 50", len(last.Keys("hits")))
	}
}
