package sim

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestScheduleOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(NS(30), func() { got = append(got, 3) })
	e.Schedule(NS(10), func() { got = append(got, 1) })
	e.Schedule(NS(20), func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	if e.Now() != NS(30) {
		t.Errorf("final time = %v, want 30ns", e.Now())
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(NS(5), func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(NS(1), recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run(0)
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != NS(99) {
		t.Errorf("time = %v, want 99ns", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(NS(10), func() {
		e.Schedule(-NS(5), func() { fired = true })
	})
	e.Run(0)
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if e.Now() != NS(10) {
		t.Errorf("time = %v, want 10ns (clamped)", e.Now())
	}
}

func TestScheduleAtClampsToNow(t *testing.T) {
	e := NewEngine()
	at := Time(-1)
	e.Schedule(NS(10), func() {
		e.ScheduleAt(NS(3), func() { at = e.Now() })
	})
	e.Run(0)
	if at != NS(10) {
		t.Errorf("past ScheduleAt fired at %v, want 10ns", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(NS(int64(i)), func() { n++ })
	}
	if !e.RunUntil(func() bool { return n == 5 }, 0) {
		t.Fatal("condition not reached")
	}
	if n != 5 {
		t.Errorf("n = %d, want 5", n)
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d, want 5", e.Pending())
	}
}

func TestRunEventLimit(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(NS(1), tick) }
	e.Schedule(0, tick)
	e.Run(1000)
	if e.Executed != 1000 {
		t.Errorf("executed = %d, want 1000", e.Executed)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(NS(1), func() { n++; e.Stop() })
	e.Schedule(NS(2), func() { n++ })
	e.Run(0)
	if n != 1 {
		t.Errorf("n = %d, want 1 (stopped)", n)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d)*Nanosecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Executed equals the number of scheduled events when all run.
func TestPropertyAllEventsFire(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		for i := 0; i < int(n); i++ {
			e.Schedule(Time(rng.Intn(1000))*Nanosecond, func() {})
		}
		e.Run(0)
		return e.Executed == uint64(n) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		PS(500):          "500ps",
		NS(3):            "3.000ns",
		Microsecond * 2:  "2.000us",
		Millisecond * 10: "10.000ms",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

// TestScheduleCallInterleavesWithSchedule asserts the closure-free form
// shares the (time, sequence) order with plain closures.
func TestScheduleCallInterleavesWithSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(_, arg any) { got = append(got, *arg.(*int)) }
	one, three := 1, 3
	e.Schedule(NS(5), func() { got = append(got, 0) })
	e.ScheduleCall(NS(5), record, nil, &one)
	e.Schedule(NS(5), func() { got = append(got, 2) })
	e.ScheduleCallAt(NS(5), record, nil, &three)
	e.Run(0)
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("order = %v, want [0 1 2 3]", got)
	}
}

// TestScheduleCallPassesCtxArg asserts ctx and arg arrive untouched.
func TestScheduleCallPassesCtxArg(t *testing.T) {
	e := NewEngine()
	type box struct{ v int }
	ctx, arg := &box{1}, &box{2}
	var gotCtx, gotArg *box
	e.ScheduleCall(NS(1), func(c, a any) { gotCtx, gotArg = c.(*box), a.(*box) }, ctx, arg)
	e.Run(0)
	if gotCtx != ctx || gotArg != arg {
		t.Errorf("ctx/arg = %p/%p, want %p/%p", gotCtx, gotArg, ctx, arg)
	}
}

// TestHeapPopsTotalOrder cross-checks the queue against a sorted
// reference on (time, sequence) over a schedule built to stress the
// per-time buckets: 16-way fan-outs at one delay, zero-delay events
// scheduled from inside a same-time drain, ScheduleAt/ScheduleCallAt
// calls into the past that clamp to now, and Schedule interleaved with
// ScheduleCall.
func TestHeapPopsTotalOrder(t *testing.T) {
	type key struct {
		at  Time
		seq int
	}
	type node struct {
		key
		depth int
	}
	rng := rand.New(rand.NewSource(42))
	delays := []Time{0, NS(2), PS(20500), NS(7)}
	e := NewEngine()
	var scheduled, fired []key
	var fire func(_, arg any)
	add := func(at Time, depth int) {
		n := &node{key{max(at, e.Now()), len(scheduled) + 1}, depth}
		scheduled = append(scheduled, n.key)
		switch n.seq % 4 {
		case 0:
			e.Schedule(at-e.Now(), func() { fire(nil, n) })
		case 1:
			e.ScheduleAt(at, func() { fire(nil, n) })
		case 2:
			e.ScheduleCall(at-e.Now(), fire, nil, n)
		case 3:
			e.ScheduleCallAt(at, fire, nil, n)
		}
	}
	fire = func(_, arg any) {
		n := arg.(*node)
		if e.Now() != n.at {
			t.Fatalf("event %d fired at %v, scheduled for %v", n.seq, e.Now(), n.at)
		}
		fired = append(fired, n.key)
		if n.depth == 0 {
			return
		}
		now := e.Now()
		switch rng.Intn(4) {
		case 0: // a broadcast: 16 events at one delay
			d := delays[rng.Intn(len(delays))]
			for range 16 {
				add(now+d, n.depth-1)
			}
		case 1: // zero delay: joins the bucket being drained
			add(now, n.depth-1)
			add(now, n.depth-1)
		case 2: // into the past: clamps to now
			add(now-NS(int64(rng.Intn(5)+1)), n.depth-1)
		case 3:
			add(now+Time(rng.Intn(500))*Nanosecond, n.depth-1)
		}
	}
	for range 20 {
		add(Time(rng.Intn(50))*Nanosecond, 5)
	}
	e.Run(0)
	if e.Pending() != 0 || len(fired) != len(scheduled) {
		t.Fatalf("fired %d of %d events, %d pending", len(fired), len(scheduled), e.Pending())
	}
	if len(fired) < 5000 {
		t.Fatalf("schedule too small to stress the queue: %d events", len(fired))
	}
	// scheduled is in sequence order, so a stable sort on time gives
	// the (time, sequence) reference.
	want := slices.Clone(scheduled)
	slices.SortStableFunc(want, func(a, b key) int { return cmp.Compare(a.at, b.at) })
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d: fired %+v, want %+v", i, fired[i], want[i])
		}
	}
}

// TestTimeIndexMatchesMap drives the queue's time index and a Go map
// through the same random puts and deletes. Times are drawn from a
// narrow range so probe runs collide and wrap around the table.
func TestTimeIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x timeIndex
	ref := map[Time]int32{}
	for step := 0; step < 200000; step++ {
		at := Time(rng.Intn(300)) * PS(500)
		if b, ok := ref[at]; ok && rng.Intn(2) == 0 {
			if got := x.get(at); got != b {
				t.Fatalf("step %d: get(%v) = %d, want %d", step, at, got, b)
			}
			x.del(at)
			delete(ref, at)
		} else if !ok {
			b := int32(step%1000 + 1)
			x.put(at, b)
			ref[at] = b
		}
		if x.get(at) != ref[at] {
			t.Fatalf("step %d: get(%v) = %d, want %d", step, at, x.get(at), ref[at])
		}
	}
	for at, b := range ref {
		if got := x.get(at); got != b {
			t.Fatalf("final get(%v) = %d, want %d", at, got, b)
		}
	}

	// A probe run that wraps past the last slot of a fresh 16-slot
	// table: A and B hash to the last slot, Z to slot 0, and inserting
	// A, Z, B leaves B in slot 1. Deleting A must move B back across
	// the wrap and leave Z, already at its home, in place.
	var w timeIndex
	w.put(0, 1)
	w.del(0)
	homed := func(slot int, skip Time) Time {
		at := skip + 1
		for w.home(at) != slot {
			at++
		}
		return at
	}
	last := len(w.slots) - 1
	a := homed(last, 0)
	z := homed(0, 0)
	b := homed(last, a)
	w.put(a, 1)
	w.put(z, 2)
	w.put(b, 3)
	w.del(a)
	if w.get(a) != 0 || w.get(z) != 2 || w.get(b) != 3 {
		t.Errorf("after deleting across the wrap: get = %d, %d, %d, want 0, 2, 3", w.get(a), w.get(z), w.get(b))
	}
}

// TestScheduleCallDoesNotAllocate pins the closure-free fast path at
// zero allocations per scheduled+fired event once the queue is warm,
// both for one event at a time and for a same-time burst.
func TestScheduleCallDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	nop := func(_, _ any) {}
	// Warm the queue's slabs.
	for i := 0; i < 64; i++ {
		e.ScheduleCall(NS(1), nop, e, nil)
	}
	e.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(NS(1), nop, e, nil)
		e.Step()
	})
	if avg != 0 {
		t.Errorf("ScheduleCall+Step allocates %.2f per event, want 0", avg)
	}
	avg = testing.AllocsPerRun(1000, func() {
		for range 16 {
			e.ScheduleCall(NS(2), nop, e, nil)
		}
		for range 16 {
			e.Step()
		}
	})
	if avg != 0 {
		t.Errorf("a 16-event same-time burst allocates %.2f per burst, want 0", avg)
	}
}

// BenchmarkEngineFanout times the event queue in the shape the
// commercial workload gives it: 16-way fan-outs at one delay (a
// broadcast), delays cycling through the 2 ns, 20.5 ns and 7 ns
// latencies that dominate it, and about 300 pending events. One op
// schedules a fan-out and fires 16 events.
func BenchmarkEngineFanout(b *testing.B) {
	const fanout, depth = 16, 300
	delays := [...]Time{NS(2), PS(20500), NS(7)}
	e := NewEngine()
	nop := func(_, _ any) {}
	k := 0
	fan := func() {
		d := delays[k%len(delays)]
		k++
		for range fanout {
			e.ScheduleCall(d, nop, e, nil)
		}
	}
	for e.Pending() < depth {
		fan()
		e.Step()
	}
	b.ReportAllocs()
	for b.Loop() {
		fan()
		for range fanout {
			e.Step()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fanout), "ns/event")
}

// TestCancelStopsWithinBound pins the documented cancellation bound: a
// run whose context is cancelled mid-flight (here, by an event handler
// itself) fires at most CancelCheckEvery further events.
func TestCancelStopsWithinBound(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)
	var reschedule func()
	reschedule = func() { e.Schedule(NS(1), reschedule) }
	reschedule()
	const cancelAt = 100
	var cancelled uint64
	e.Schedule(NS(1), func() {
		// Fires as the second event at t=1ns; keep rescheduling until
		// the cancel point, then cancel from inside the run.
		var tick func()
		tick = func() {
			if e.Executed == cancelAt {
				cancelled = e.Executed
				cancel()
				return
			}
			e.Schedule(NS(1), tick)
		}
		tick()
	})
	e.Run(0)
	if cancelled == 0 {
		t.Fatal("cancel point never reached")
	}
	if !e.Interrupted() {
		t.Fatalf("engine not interrupted (executed %d events)", e.Executed)
	}
	if got := e.Executed - cancelled; got > CancelCheckEvery {
		t.Errorf("engine ran %d events past cancellation, documented bound is %d", got, CancelCheckEvery)
	}
	if e.Err() == nil {
		t.Error("Err() = nil after interruption, want context.Canceled")
	}
}

// TestRunUntilCancelDistinguishable asserts RunUntil reports an
// unsatisfied condition on cancellation and that Interrupted
// distinguishes it from an exhausted queue or event limit.
func TestRunUntilCancelDistinguishable(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run even starts
	e.SetContext(ctx)
	var chain func()
	chain = func() { e.Schedule(NS(1), chain) }
	chain()
	ok := e.RunUntil(func() bool { return false }, 0)
	if ok {
		t.Fatal("RunUntil reported cond satisfied on a cancelled run")
	}
	if !e.Interrupted() {
		t.Fatal("Interrupted() = false after pre-cancelled run")
	}
	if e.Executed > CancelCheckEvery {
		t.Errorf("pre-cancelled run fired %d events, bound is %d", e.Executed, CancelCheckEvery)
	}
	// Limit exhaustion must NOT read as interruption.
	e2 := NewEngine()
	e2.SetContext(context.Background())
	var chain2 func()
	chain2 = func() { e2.Schedule(NS(1), chain2) }
	chain2()
	if e2.RunUntil(func() bool { return false }, 10) {
		t.Fatal("RunUntil satisfied an always-false cond")
	}
	if e2.Interrupted() {
		t.Error("limit exhaustion reported as interruption")
	}
}

// TestSetContextBackgroundIsFree asserts a never-cancellable context is
// normalized away: the engine behaves exactly as if no context were
// installed (the zero-overhead, determinism-preserving path).
func TestSetContextBackgroundIsFree(t *testing.T) {
	run := func(ctx context.Context) []Time {
		e := NewEngine()
		e.SetContext(ctx)
		var fired []Time
		for i := 0; i < 3000; i++ {
			d := Time(i%7) * Nanosecond
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run(0)
		return fired
	}
	plain := run(nil)
	bg := run(context.Background())
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	withLive := run(live)
	if len(plain) != len(bg) || len(plain) != len(withLive) {
		t.Fatalf("event counts diverged: nil=%d background=%d live=%d", len(plain), len(bg), len(withLive))
	}
	for i := range plain {
		if plain[i] != bg[i] || plain[i] != withLive[i] {
			t.Fatalf("event %d fired at %v/%v/%v across context variants", i, plain[i], bg[i], withLive[i])
		}
	}
}
