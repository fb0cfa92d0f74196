package cluster_test

import (
	"testing"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/forensics"
	"nexus/internal/profiler"
)

// BenchmarkTelemetrySample times one telemetry sampling tick — the sampler
// pulling every session, frontend, backend and control-plane value into
// the registry, then Collector.Tick sampling it, running the alert rules
// and feeding the flight recorder — on the Figure 13 fleet after 40 s of
// simulated traffic on 100 elastic K80s. Between ticks the clock advances
// one sampling interval through a no-op event, so every tick is a fresh
// snapshot.
func BenchmarkTelemetrySample(b *testing.B) {
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 100, GPU: profiler.K80, Seed: 1,
		Epoch: 30 * time.Second, Warmup: 10 * time.Second,
		Forensics: &forensics.Config{},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, build := range apps.All(0.5) {
		if _, err := apps.Deploy(d, build); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := d.Run(40 * time.Second); err != nil {
		b.Fatal(err)
	}
	if n := len(d.BackendIDs()); n < 50 {
		b.Fatalf("deployment holds %d backends, want about 100", n)
	}
	iv := d.Telemetry().Interval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Clock.At(d.Clock.Now()+iv, func() {})
		d.Clock.Run()
		d.SampleTelemetry()
	}
}
