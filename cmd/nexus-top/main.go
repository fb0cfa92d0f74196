// nexus-top is a terminal dashboard over a live-telemetry snapshot stream
// (nexus-sim -telemetry-out). It renders per-session goodput and SLO
// attainment, per-GPU utilization/queue/batch state, scheduler counters,
// the firing alerts, and — when given the audit log — the scheduler's
// recent plan changes, from a finished recording or live by tailing a
// file another process is still appending to.
//
//	nexus-sim -app game -rate 300 -telemetry-out /tmp/telem.jsonl -alerts-out /tmp/alerts.jsonl
//	nexus-top -in /tmp/telem.jsonl -alerts /tmp/alerts.jsonl
//	nexus-top -in /tmp/telem.jsonl -audit /tmp/audit.json  # plan-change panel
//	nexus-top -in /tmp/telem.jsonl -follow        # live tail
//	nexus-top -in - < /tmp/telem.jsonl            # stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

func main() {
	in := flag.String("in", "", "telemetry snapshot JSONL ('-' = stdin)")
	alertsPath := flag.String("alerts", "", "telemetry alert-log JSONL (optional)")
	auditPath := flag.String("audit", "", "control-plane audit log JSON (optional; adds the plan-change panel)")
	follow := flag.Bool("follow", false, "keep tailing -in as it grows, re-rendering each snapshot")
	refresh := flag.Duration("refresh", 500*time.Millisecond, "poll period while following")
	plain := flag.Bool("plain", false, "no terminal control codes; print one final frame")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "nexus-top: need -in (see nexus-sim -telemetry-out)")
		flag.Usage()
		os.Exit(2)
	}

	var alerts []telemetry.Alert
	if *alertsPath != "" {
		f, err := os.Open(*alertsPath)
		if err != nil {
			log.Fatal(err)
		}
		alerts, err = telemetry.ReadAlertsJSONL(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}

	var planDiffs []trace.PlanDiffRecord
	if *auditPath != "" {
		f, err := os.Open(*auditPath)
		if err != nil {
			log.Fatal(err)
		}
		audit, err := trace.ReadAudit(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		planDiffs = audit.PlanDiffs()
	}

	if *in == "-" {
		snaps, err := telemetry.ReadSnapshotsJSONL(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		finish(snaps, alerts, planDiffs, *plain)
		return
	}

	if !*follow {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		snaps, err := telemetry.ReadSnapshotsJSONL(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		finish(snaps, alerts, planDiffs, *plain)
		return
	}

	if err := tail(*in, alerts, planDiffs, *refresh, *plain); err != nil {
		log.Fatal(err)
	}
}

// finish renders the recording's final state once.
func finish(snaps []telemetry.Snapshot, alerts []telemetry.Alert, planDiffs []trace.PlanDiffRecord, plain bool) {
	if len(snaps) == 0 {
		log.Fatal("nexus-top: no snapshots in input (empty or truncated stream?)")
	}
	if !plain {
		fmt.Print("\x1b[H\x1b[2J")
	}
	os.Stdout.WriteString(renderFrame(snaps, alerts, planDiffs))
}

// tail follows a growing snapshot file, rendering a frame per new
// snapshot. Torn trailing lines (a writer mid-append) stay buffered in the
// feed parser and are retried on the next poll instead of killing the
// watch. Runs until interrupted (^C).
func tail(path string, alerts []telemetry.Alert, planDiffs []trace.PlanDiffRecord, refresh time.Duration, plain bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var feed feedParser
	var snaps []telemetry.Snapshot
	for {
		chunk, err := io.ReadAll(f)
		if err != nil {
			return err
		}
		fresh, err := feed.advance(chunk)
		if err != nil {
			return fmt.Errorf("nexus-top: %s: %w", path, err)
		}
		if len(fresh) > 0 {
			snaps = append(snaps, fresh...)
			if !plain {
				fmt.Print("\x1b[H\x1b[2J")
			}
			os.Stdout.WriteString(renderFrame(snaps, alerts, planDiffs))
		}
		time.Sleep(refresh)
	}
}

// renderFrame builds one dashboard frame from the snapshot history (the
// last snapshot is the displayed state; the previous one provides rate
// deltas), the alert log, and the plan-diff history.
func renderFrame(snaps []telemetry.Snapshot, alerts []telemetry.Alert, planDiffs []trace.PlanDiffRecord) string {
	cur := &snaps[len(snaps)-1]
	var prev *telemetry.Snapshot
	if len(snaps) > 1 {
		prev = &snaps[len(snaps)-2]
	}
	var b strings.Builder

	epochs, _ := cur.Counter("sched_epochs_total")
	moved, _ := cur.Counter("sched_sessions_moved_total")
	alloc, _ := cur.Gauge("sched_gpus_allocated")
	demanded, _ := cur.Gauge("sched_gpus_demanded")
	capacity, _ := cur.Gauge("cluster_gpus_capacity")
	fmt.Fprintf(&b, "nexus-top  t=%.1fs  epochs=%.0f  moves=%.0f  gpus=%.0f/%.0f (demand %.0f)\n\n",
		cur.AtMS/1000, epochs, moved, alloc, capacity, demanded)

	// Per-session panel.
	fmt.Fprintf(&b, "%-24s %9s %9s %8s %8s %10s\n", "SESSION", "SENT", "GOOD", "BAD", "ATTAIN%", "GOODPUT/S")
	for _, key := range cur.Keys("session_sent_total") {
		sid := telemetry.LabelValue(key, "session")
		sent, _ := cur.Counter(key)
		good, _ := cur.Counter(telemetry.Key("session_good_total", "session", sid))
		bad, _ := cur.Counter(telemetry.Key("session_bad_total", "session", sid))
		attain := 100.0
		if good+bad > 0 {
			attain = 100 * good / (good + bad)
		}
		goodput := 0.0
		if prev != nil && cur.At > prev.At {
			pg, _ := prev.Counter(telemetry.Key("session_good_total", "session", sid))
			goodput = (good - pg) / (cur.At - prev.At).Seconds()
		}
		fmt.Fprintf(&b, "%-24s %9.0f %9.0f %8.0f %8.2f %10.1f\n", sid, sent, good, bad, attain, goodput)
	}

	// Per-GPU panel. Under forensics the exec window carries an exemplar
	// request ID — the lead request of the window's worst batch — so a hot
	// p99 cell names a concrete span to chase in the trace.
	fmt.Fprintf(&b, "\n%-10s %4s %7s %7s %7s %10s %12s\n", "BACKEND", "UP", "DUTY%", "QUEUE", "BATCH", "EXEC p99", "EXEMPLAR")
	for _, key := range cur.Keys("backend_up") {
		beID := telemetry.LabelValue(key, "backend")
		up, _ := cur.Gauge(key)
		duty, _ := cur.Gauge(telemetry.Key("backend_duty", "backend", beID))
		queue, _ := cur.Gauge(telemetry.Key("backend_queue_depth", "backend", beID))
		batch, _ := cur.Gauge(telemetry.Key("backend_batch_size", "backend", beID))
		upStr := "down"
		if up > 0 {
			upStr = "up"
		}
		p99, exemplar := "-", "-"
		if w, ok := cur.Window(telemetry.Key("backend_exec_ms", "backend", beID)); ok && w.Count > 0 {
			p99 = fmt.Sprintf("%.2fms", w.P99MS)
			if w.ExemplarID != 0 {
				exemplar = fmt.Sprintf("req %d", w.ExemplarID)
			}
		}
		fmt.Fprintf(&b, "%-10s %4s %7.1f %7.0f %7.1f %10s %12s\n", beID, upStr, 100*duty, queue, batch, p99, exemplar)
	}

	// Plan-change panel: the scheduler's most recent decisions up to the
	// displayed time — the "what changed right before" half of a tail
	// regression.
	var recentDiffs []trace.PlanDiffRecord
	for _, pd := range planDiffs {
		if pd.AtMS > cur.AtMS {
			break
		}
		recentDiffs = append(recentDiffs, pd)
	}
	if n := len(recentDiffs); n > 0 {
		shown := recentDiffs[max(0, n-3):]
		fmt.Fprintf(&b, "\nplan changes (last %d epochs):\n", len(shown))
		for _, pd := range shown {
			trace.WritePlanDiffText(&b, pd)
		}
	}

	// Alert panel: transitions up to the displayed time; firing set last.
	firing := map[string]telemetry.Alert{}
	var recent []telemetry.Alert
	for _, a := range alerts {
		if a.At > cur.At {
			break
		}
		recent = append(recent, a)
		key := a.Rule + "(" + a.Target + ")"
		if a.State == "firing" {
			firing[key] = a
		} else {
			delete(firing, key)
		}
	}
	if len(firing) > 0 {
		keys := make([]string, 0, len(firing))
		for k := range firing {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "\nFIRING:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s", k)
		}
		fmt.Fprintln(&b)
	}
	if n := len(recent); n > 0 {
		fmt.Fprintf(&b, "\nlast alerts:\n")
		lo := n - 5
		if lo < 0 {
			lo = 0
		}
		for _, a := range recent[lo:] {
			fmt.Fprintf(&b, "  t=%8.3fs %-8s %s(%s) %s\n", a.AtMS/1000, a.State, a.Rule, a.Target, a.Detail)
		}
	}
	return b.String()
}
