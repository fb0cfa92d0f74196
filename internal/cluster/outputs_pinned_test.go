package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"nexus/internal/faults"
	"nexus/internal/forensics"
	"nexus/internal/scheduler"
	"nexus/internal/telemetry"
)

// pinnedOutputs hashes every file-shaped observability output of a run:
// the snapshot JSONL, the alert JSONL, the dump JSONL and the audit JSON.
func pinnedOutputs(t *testing.T, d *Deployment) map[string]string {
	t.Helper()
	sum := func(write func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(h[:])
	}
	return map[string]string{
		"snapshots": sum(func(b *bytes.Buffer) error { return telemetry.WriteSnapshotsJSONL(b, d.Telemetry().Snapshots()) }),
		"alerts":    sum(func(b *bytes.Buffer) error { return telemetry.WriteAlertsJSONL(b, d.Telemetry().Alerts()) }),
		"dumps":     sum(func(b *bytes.Buffer) error { return forensics.WriteDumpsJSONL(b, d.Flight().Dumps()) }),
		"audit":     sum(func(b *bytes.Buffer) error { return d.Audit().WriteJSON(b) }),
	}
}

// TestObservabilityOutputDigests pins the bytes the telemetry, alerting,
// forensics and audit planes write for two small seeded deployments. The
// determinism tests compare a run with itself, so they cannot see a change
// in what is written; these constants can. The chaos run crashes a backend
// under degraded-mode frontends with every alert rule armed, so it fires
// alerts and captures dumps; the spatial run exports per-slice gauges.
func TestObservabilityOutputDigests(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) *Deployment
		want map[string]string
	}{
		{
			name: "chaos",
			run: func(t *testing.T) *Deployment {
				cfg := forensicsChaosConfig()
				cfg.BreakerThreshold = 3
				cfg.Telemetry.Rules = append(cfg.Telemetry.Rules,
					telemetry.QueueSaturation{Limit: 8}, telemetry.Straggler{})
				d := chaosDeployment(t, cfg)
				in := faults.New(d.Clock, d, 7)
				if err := in.Schedule(faults.Script{{At: chaosFaultAt, Kind: faults.Crash, Backend: "be0"}}); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Run(20 * time.Second); err != nil {
					t.Fatal(err)
				}
				if len(d.Telemetry().Alerts()) == 0 || len(d.Flight().Dumps()) == 0 {
					t.Fatal("no alert or dump; the pinned bytes would be vacuous")
				}
				return d
			},
			want: map[string]string{
				"snapshots": "a70c401e5e80f48a50fafbd12a2817e2f3243f879541b513eb68a3d07dd66891",
				"alerts":    "c3e5b5b48460a3ebeee9f35ab88cb9d38d119140bc8a9dcff5a52cd268ef3f57",
				"dumps":     "9a7a78500199a75c091955c4fe69189cc7a01c23f866e4d8c9187f4f5c012639",
				"audit":     "b1c15094997ca0e8ff0ced2faba504f9b50791af10da6d8ef4ae19969a098357",
			},
		},
		{
			name: "spatial",
			run: func(t *testing.T) *Deployment {
				d := spatialFleet(t, scheduler.PlaceSpatial, &telemetry.Config{Interval: 500 * time.Millisecond})
				if _, err := d.Run(15 * time.Second); err != nil {
					t.Fatal(err)
				}
				return d
			},
			want: map[string]string{
				"snapshots": "1610e248d1ec3ce04584cafe7db7bc73e7b9020bddebb101f2dec6e64af25974",
				"alerts":    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"dumps":     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
				"audit":     "4be10c4adb328c1c0234aeaa12b992c076ec2e79cadb491ca3f0d67c508ba49a",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pinnedOutputs(t, tc.run(t))
			for _, k := range []string{"snapshots", "alerts", "dumps", "audit"} {
				if got[k] != tc.want[k] {
					t.Errorf("%s sha256 = %s, want %s", k, got[k], tc.want[k])
				}
			}
		})
	}
}
