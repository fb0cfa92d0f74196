package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"
)

// WriteSnapshotsJSONL writes snapshots one JSON object per line — the
// stream format nexus-top tails. Keys come out sorted, so output is
// byte-deterministic.
func WriteSnapshotsJSONL(w io.Writer, snaps []Snapshot) error {
	var line []byte
	for i := range snaps {
		var err error
		if line, err = snaps[i].appendJSON(line[:0]); err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadSnapshotsJSONL reads a snapshot stream, reconstructing virtual
// timestamps from at_ms.
func ReadSnapshotsJSONL(r io.Reader) ([]Snapshot, error) {
	var out []Snapshot
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var s Snapshot
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: parsing snapshot JSONL: %w", err)
		}
		s.At = time.Duration(s.AtMS * float64(time.Millisecond))
		out = append(out, s)
	}
}

// WriteAlertsJSONL writes the alert log one JSON object per line.
func WriteAlertsJSONL(w io.Writer, alerts []Alert) error {
	enc := json.NewEncoder(w)
	for i := range alerts {
		if err := enc.Encode(&alerts[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadAlertsJSONL reads an alert log written by WriteAlertsJSONL.
func ReadAlertsJSONL(r io.Reader) ([]Alert, error) {
	var out []Alert
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var a Alert
		if err := dec.Decode(&a); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: parsing alert JSONL: %w", err)
		}
		a.At = time.Duration(a.AtMS * float64(time.Millisecond))
		out = append(out, a)
	}
}

// promPrefix namespaces every exported metric.
const promPrefix = "nexus_"

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Windows export as per-window _count/_mean/_p50/
// _p99 gauges in milliseconds.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	tab := s.table()
	writeFamilies(bw, len(s.counters), func(i int) (string, float64) { return tab.counters.keys[i], s.counters[i] }, "counter")
	writeFamilies(bw, len(s.gauges), func(i int) (string, float64) { return tab.gauges.keys[i], s.gauges[i] }, "gauge")
	if len(s.windows) > 0 {
		type flatSample struct {
			key string
			v   float64
		}
		flat := make([]flatSample, 0, 4*len(s.windows))
		for i, ws := range s.windows {
			fam, labels := splitKey(tab.windows.keys[i])
			flat = append(flat,
				flatSample{fam + "_count" + labels, float64(ws.Count)},
				flatSample{fam + "_mean" + labels, ws.MeanMS},
				flatSample{fam + "_p50" + labels, ws.P50MS},
				flatSample{fam + "_p99" + labels, ws.P99MS})
		}
		sort.Slice(flat, func(i, j int) bool { return flat[i].key < flat[j].key })
		writeFamilies(bw, len(flat), func(i int) (string, float64) { return flat[i].key, flat[i].v }, "gauge")
	}
	fmt.Fprintf(bw, "# HELP %ssnapshot_at_ms virtual time of this snapshot\n", promPrefix)
	fmt.Fprintf(bw, "# TYPE %ssnapshot_at_ms gauge\n", promPrefix)
	fmt.Fprintf(bw, "%ssnapshot_at_ms %s\n", promPrefix, formatValue(s.AtMS))
	return bw.Flush()
}

// splitKey separates a canonical key into its family and label block
// (label block includes braces, or "" when unlabeled).
func splitKey(key string) (family, labels string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i], key[i:]
		}
	}
	return key, ""
}

// writeFamilies emits one # TYPE header per metric family, then its
// samples; sample(i) returns the i-th key and value, keys sorted.
func writeFamilies(w io.Writer, n int, sample func(i int) (string, float64), typ string) {
	lastFam := ""
	for i := 0; i < n; i++ {
		k, v := sample(i)
		fam, labels := splitKey(k)
		if fam != lastFam {
			fmt.Fprintf(w, "# TYPE %s%s %s\n", promPrefix, fam, typ)
			lastFam = fam
		}
		fmt.Fprintf(w, "%s%s%s %s\n", promPrefix, fam, labels, formatValue(v))
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the collector over HTTP for live runs:
//
//	/metrics       — latest snapshot, Prometheus text format
//	/alerts        — alert log, plain text
//	/health        — per-epoch scheduler health reports, plain text
//	/debug/pprof/  — Go runtime profiles (CPU, heap, goroutines, ...)
//
// /metrics reads only the mutex-published latest snapshot, so scraping a
// running simulation is race-free; /alerts and /health are intended for
// after the run (they read the logs without synchronization with the
// simulation goroutine). The pprof routes profile the simulator process
// itself — the self-observability counterpart to the gauges SampleRuntime
// exports.
func Handler(c *Collector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s, ok := c.Latest()
		if !ok {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, &s)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = c.WriteAlertsText(w)
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = c.WriteHealthText(w)
	})
	return mux
}
