package cluster

// SampleTelemetry runs one telemetry sampler tick, which ends in one
// Collector.Tick, at the clock's current time.
func (d *Deployment) SampleTelemetry() { d.telemSample.sample() }
