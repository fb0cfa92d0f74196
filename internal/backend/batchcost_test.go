package backend

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

// requireFreeListZero fails unless every slice on q's batch free list is
// empty and zero over its full capacity: the invariant that lets Recycle
// clear only the batch's length.
func requireFreeListZero(t *testing.T, q *Queue, what string) {
	t.Helper()
	for i, s := range q.free {
		if len(s) != 0 {
			t.Fatalf("%s: free slice %d has length %d", what, i, len(s))
		}
		for j, r := range s[:cap(s)] {
			if r != (Request{}) {
				t.Fatalf("%s: free slice %d slot %d/%d still holds %+v", what, i, j, cap(s), r)
			}
		}
	}
}

// TestPropertyRecycleKeepsFreeListZero drives random PopN/Recycle cycles of
// varying size through the paths the backend uses: batches held in flight
// and recycled later, drop-policy culls through handleDropped (with and
// without deferral), and deferred batches recycled into the unit's main
// queue. After every recycle, each free-list slice must be zero over its
// whole capacity (no stale request pinned or leaked into a later batch),
// and every batch must still hold exactly the requests it was popped with.
func TestPropertyRecycleKeepsFreeListZero(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := simclock.New()
		dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
		be := New("b", clock, dev, Config{}, nil)
		p := testUnitProfile()
		if err := be.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 8}}); err != nil {
			t.Fatal(err)
		}
		u := be.unit("u")
		type held struct {
			batch []Request
			ids   []uint64
		}
		var (
			inFlight []held
			id       uint64
			recycles int
		)
		hold := func(batch []Request) {
			ids := make([]uint64, len(batch))
			for i, r := range batch {
				ids[i] = r.ID
			}
			inFlight = append(inFlight, held{batch, ids})
		}
		recycle := func(h held, what string) {
			for i, r := range h.batch {
				if r.ID != h.ids[i] || r.Session == "" {
					t.Fatalf("seed %d: %s: batch slot %d holds %+v, popped as ID %d", seed, what, i, r, h.ids[i])
				}
			}
			u.queue.Recycle(h.batch)
			recycles++
			requireFreeListZero(t, &u.queue, what)
			requireFreeListZero(t, &u.deferred, what)
		}
		for step := 0; step < 3000; step++ {
			for k := rng.Intn(p.MaxBatch); k > 0; k-- {
				id++
				u.queue.Push(Request{ID: id, Session: fmt.Sprintf("s%d", id%7), Deadline: time.Duration(id)})
			}
			n := 1 + rng.Intn(p.MemoBatches()+8) // past the primed capacity too
			switch op := rng.Intn(4); {
			case op == 0 && len(inFlight) > 0:
				// A batch completes: afterPost recycles it.
				i := rng.Intn(len(inFlight))
				h := inFlight[i]
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
				recycle(h, "afterPost")
			case op == 1:
				// A drop-policy cull, deferred or reported.
				be.cfg.DeferDropped = rng.Intn(2) == 0
				if dropped := u.queue.PopN(n); len(dropped) > 0 {
					be.handleDropped(u, dropped)
					recycles++
					requireFreeListZero(t, &u.queue, "handleDropped")
				}
			case op == 2 && u.deferred.Len() > 0:
				// A deferred batch executes and is recycled into the
				// unit's main queue.
				hold(u.deferred.PopN(n))
			default:
				if batch := u.queue.PopN(n); len(batch) > 0 {
					hold(batch)
				}
			}
			for len(inFlight) > maxFreeBatches {
				recycle(inFlight[0], "afterPost")
				inFlight = inFlight[1:]
			}
		}
		if recycles < 1000 {
			t.Fatalf("seed %d: only %d recycles exercised", seed, recycles)
		}
	}
}

// TestPopNRecycleSteadyStateZeroAlloc pins that, once the ring and free
// list are warm, a PopN + Recycle pair of any size up to the primed
// capacity allocates nothing.
func TestPopNRecycleSteadyStateZeroAlloc(t *testing.T) {
	const maxBatch = 1024
	var q Queue
	q.Reserve(2 * maxBatch)
	q.PrimeBatches(2, maxBatch)
	n := 0
	cycle := func() {
		k := 1 + (n*37)%maxBatch
		n++
		for i := 0; i < k; i++ {
			q.Push(Request{ID: uint64(i), Session: "s", Deadline: time.Duration(i)})
		}
		q.Recycle(q.PopN(k))
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("PopN + Recycle allocates %.1f times per pair at steady state, want 0", allocs)
	}
}

// refGPUTime is the map-based member count gpuTime used before its dense
// scratch, keyed by session ID, kept as the reference the index-keyed
// scratch must match exactly. It also reports whether the combined-profile
// clamp decided the result.
func refGPUTime(u *unitState, batch []Request) (total time.Duration, clamped bool) {
	n := len(batch)
	if u.Prefix == nil || u.Suffix == nil {
		return u.Profile.BatchLatency(n), false
	}
	perMember := make(map[string]int)
	for _, r := range batch {
		perMember[r.Session]++
	}
	total = u.Prefix.BatchLatency(n)
	for _, count := range perMember {
		total += u.Suffix.BatchLatency(count)
	}
	if est := u.Profile.BatchLatency(n); total >= est {
		return est, true
	}
	return total, false
}

// TestPropertyGPUTimeMatchesMapReference compares gpuTime's counting by
// session index with the reference keyed by session ID over random
// prefix-group batches: members repeated within a batch, sessions outside
// the group (stale requests after a regroup), sessions interned after the
// last Configure (so the counts grow mid-batch), groups whose members change
// when the same unit ID is reconfigured, and a Reset followed by reuse.
// Totals must match exactly, and every count must be back to zero after
// each batch.
func TestPropertyGPUTimeMatchesMapReference(t *testing.T) {
	base := testUnitProfile()
	base.MaxBatch = 128
	pre, suf := base.Split(0.9)
	rng := rand.New(rand.NewSource(3))
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	sessions := workload.NewSessions()
	be := New("b", clock, dev, Config{Sessions: sessions}, nil)
	session := func(i int) string { return fmt.Sprintf("sess-%d", i) }
	request := func(id int, sid string) Request {
		return Request{ID: uint64(id), Session: sid, SessionIndex: sessions.Intern(sid)}
	}
	unclamped, batches := 0, 0
	for round := 0; round < 40; round++ {
		if round%10 == 9 {
			be.Reset()
		}
		// Two groups under fixed IDs, with members redrawn every round
		// from a pool larger than either group.
		var units []Unit
		members := map[string][]string{}
		for g := 0; g < 2; g++ {
			k := 1 + rng.Intn(12)
			id := fmt.Sprintf("g%d", g)
			for i := 0; i < k; i++ {
				members[id] = append(members[id], session(rng.Intn(30)))
			}
			comb, err := profiler.CombinedProfile(base, 0.1, k)
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, Unit{ID: id, Profile: comb,
				TargetBatch: 8, Prefix: &pre, Suffix: &suf})
		}
		units = append(units, Unit{ID: "plain", Profile: base, TargetBatch: 8})
		if err := be.Configure(units); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			u := be.units[rng.Intn(len(be.units))]
			group := members[u.ID]
			batch := make([]Request, 1+rng.Intn(base.MaxBatch))
			for j := range batch {
				s := u.ID
				if len(group) > 0 {
					s = group[rng.Intn(len(group))]
				}
				batch[j] = request(j, s)
			}
			if len(group) > 0 && rng.Intn(4) == 0 {
				// Stale requests from sessions that were never members.
				for k := 1 + rng.Intn(3); k > 0; k-- {
					batch[rng.Intn(len(batch))] = request(k, session(30+rng.Intn(40)))
				}
			}
			want, clamped := refGPUTime(u, batch)
			if got := be.gpuTime(u, batch); got != want {
				t.Fatalf("round %d unit %s batch of %d: gpuTime %v, map reference %v", round, u.ID, len(batch), got, want)
			}
			for i, c := range be.members.count {
				if c != 0 {
					t.Fatalf("round %d: session index %d left at count %d after a batch", round, i, c)
				}
			}
			if len(be.members.touched) != 0 {
				t.Fatalf("round %d: %d touched slots left after a batch", round, len(be.members.touched))
			}
			if u.Prefix != nil {
				batches++
				if !clamped {
					unclamped++
				}
			}
		}
	}
	// The combined-profile clamp must not hide the per-member sum.
	if unclamped < batches/2 {
		t.Fatalf("only %d of %d prefix-group batches ran below the clamp", unclamped, batches)
	}
}

// TestGPUTimeZeroAlloc pins that counting a prefix group's members
// allocates nothing, from the first batch on: Configure has already sized
// the counts to the session table.
func TestGPUTimeZeroAlloc(t *testing.T) {
	base := testUnitProfile()
	pre, suf := base.Split(0.9)
	comb, err := profiler.CombinedProfile(base, 0.1, 20)
	if err != nil {
		t.Fatal(err)
	}
	sessions := workload.NewSessions()
	members := make([]string, 20)
	for i := range members {
		members[i] = fmt.Sprintf("m%d", i)
		sessions.Intern(members[i])
	}
	clock := simclock.New()
	be := New("b", clock, gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive), Config{Sessions: sessions}, nil)
	if err := be.Configure([]Unit{{ID: "g", Profile: comb, TargetBatch: 8,
		Prefix: &pre, Suffix: &suf}}); err != nil {
		t.Fatal(err)
	}
	batch := make([]Request, base.MaxBatch)
	for i := range batch {
		m := (i * 7) % len(members)
		batch[i] = Request{ID: uint64(i), Session: members[m], SessionIndex: int32(m)}
	}
	u := be.unit("g")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	be.gpuTime(u, batch)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Fatalf("first batch after Configure allocates %d times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { be.gpuTime(u, batch) }); allocs != 0 {
		t.Fatalf("gpuTime allocates %.1f times per batch, want 0", allocs)
	}
}

// TestConfigureRejectsDuplicateUnitIDs pins that two units with one ID in
// a single Configure call are rejected before anything changes: the
// existing unit keeps serving and no model is loaded or unloaded.
func TestConfigureRejectsDuplicateUnitIDs(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	be := New("b7", clock, dev, Config{}, nil)
	p := testUnitProfile()
	if err := be.Configure([]Unit{{ID: "keep", Profile: p, TargetBatch: 4}}); err != nil {
		t.Fatal(err)
	}
	used := dev.MemUsed()
	err := be.Configure([]Unit{
		{ID: "dup", Profile: p, TargetBatch: 4},
		{ID: "dup", Profile: p, TargetBatch: 16},
	})
	if err == nil {
		t.Fatal("Configure accepted two units with ID dup")
	}
	if want := "backend b7: duplicate unit dup"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if ids := be.UnitIDs(); len(ids) != 1 || ids[0] != "keep" {
		t.Fatalf("units after rejected Configure = %v, want [keep]", ids)
	}
	if got := dev.MemUsed(); got != used {
		t.Fatalf("device memory %d after rejected Configure, want %d", got, used)
	}
}
