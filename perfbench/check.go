package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"nexus"
	"nexus/internal/metrics"
)

// conserved checks request conservation on one stat set: every request sent
// ended as completed (on time or late) or lost with a cause, so nothing is
// left in flight.
func conserved(name string, s *metrics.SessionStats) error {
	if s.Missed > s.Completed {
		return fmt.Errorf("%s: %d late of %d completed", name, s.Missed, s.Completed)
	}
	if done := s.Completed + s.Lost(); done != s.Sent {
		return fmt.Errorf("%s: sent %d but completed %d + lost %d = %d (dropped %d, unroutable %d, reconfig %d, overload %d, failed %d, admission %d)",
			name, s.Sent, s.Completed, s.Lost(), done,
			s.Dropped, s.Unroutable, s.Reconfig, s.Overload, s.Failed, s.Admission)
	}
	return nil
}

// digest accumulates the simulated outputs of one run into a short hash.
// Floats enter by their exact bits, so two runs agree only if every output
// is identical.
type digest struct{ fields []string }

func (d *digest) add(name string, v any) {
	var s string
	switch x := v.(type) {
	case float64:
		s = strconv.FormatUint(math.Float64bits(x), 16)
	default:
		s = fmt.Sprint(x)
	}
	d.fields = append(d.fields, name+"="+s)
}

// addStats adds the totals by outcome cause.
func (d *digest) addStats(prefix string, s *metrics.SessionStats) {
	d.add(prefix+".sent", s.Sent)
	d.add(prefix+".completed", s.Completed)
	d.add(prefix+".late", s.Missed)
	d.add(prefix+".dropped", s.Dropped)
	d.add(prefix+".unroutable", s.Unroutable)
	d.add(prefix+".reconfig", s.Reconfig)
	d.add(prefix+".overload", s.Overload)
	d.add(prefix+".failed", s.Failed)
	d.add(prefix+".admission", s.Admission)
}

// addPlan adds every node of a plan: its duty cycle and each allocation.
func (d *digest) addPlan(p *nexus.Plan) {
	d.add("plan.gpus", p.GPUCount())
	h := fnv.New64a()
	for _, g := range p.GPUs {
		fmt.Fprintf(h, "%d %t|", g.Duty, g.Spatial)
		for _, a := range g.Allocs {
			fmt.Fprintf(h, "%s %s %d %x %x;", a.SessionID, a.ModelID, a.Batch,
				math.Float64bits(a.Rate), math.Float64bits(a.Slice))
		}
	}
	d.add("plan.nodes", strconv.FormatUint(h.Sum64(), 16))
}

func (d *digest) sum() string {
	h := fnv.New64a()
	for _, f := range d.fields {
		fmt.Fprintln(h, f)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
