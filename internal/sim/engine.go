package sim

import (
	"context"
	"math/bits"
)

// event is one scheduled callback. It carries either a plain closure
// (fn) or the closure-free form (call, ctx, arg) — see ScheduleCall.
type event struct {
	fn func()
	// Closure-free form: call(ctx, arg). Pointer-shaped ctx/arg values
	// store into the interface words without allocating, so the network
	// can schedule a delivery without materializing a closure.
	call func(ctx, arg any)
	ctx  any
	arg  any
	// next links the event to the one after it in its bucket, or in the
	// free list once fired; 0 ends a list (slab slot 0 is never used).
	next int32
}

// bucket is the FIFO of events pending at one time, as head and tail
// slab indexes. A free bucket's head links the bucket free list.
type bucket struct{ head, tail int32 }

// timeRef names the bucket of events pending at time at.
type timeRef struct {
	at Time
	b  int32
}

// eventQueue orders events by (time, seq), where seq numbers the
// Schedule calls in the order they were made. It groups events by
// firing time: a 4-ary min-heap holds one entry per distinct pending
// time, and each time owns a FIFO bucket of events.
//
// Invariant: every bucket is in seq order. It holds because seq only
// grows, so an event appended to the tail of its time's bucket has a
// higher seq than everything already there. A delay of 0 is no
// exception: it appends to the bucket being drained, behind the events
// still waiting at now (or, if that bucket just emptied, it makes a new
// bucket at now, which is then the minimum). So a queued event never
// moves again and only the distinct times are sifted, which pays off
// because broadcasts fire many events at the same instant.
//
// Bucket contents live in one shared slab of events, linked through
// next and recycled through a free list, and buckets are recycled the
// same way; the slices keep their capacity across the run, so
// steady-state scheduling does not allocate. A fired slot is zeroed so
// the queue never pins callbacks or message pointers beyond their
// firing.
type eventQueue struct {
	slab    []event
	free    int32 // head of the slab free list
	buckets []bucket
	freeB   int32     // head of the bucket free list
	times   []timeRef // 4-ary min-heap on at, one entry per pending time
	index   timeIndex
	n       int
}

func (q *eventQueue) len() int { return q.n }

// push appends ev to the bucket of time at, making the bucket if the
// time is not pending yet.
func (q *eventQueue) push(at Time, ev event) {
	if len(q.slab) == 0 {
		// Slot 0 of both slabs is the nil link.
		q.slab = append(q.slab, event{})
		q.buckets = append(q.buckets, bucket{})
	}
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
		q.slab[i] = ev
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	q.n++
	if b := q.index.get(at); b != 0 {
		q.slab[q.buckets[b].tail].next = i
		q.buckets[b].tail = i
		return
	}
	b := q.freeB
	if b != 0 {
		q.freeB = q.buckets[b].head
		q.buckets[b] = bucket{i, i}
	} else {
		b = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{i, i})
	}
	q.index.put(at, b)
	q.times = append(q.times, timeRef{at, b})
	q.siftUp(len(q.times) - 1)
}

// pop removes and returns the first event of the earliest time, with
// that time. It retires the time once its bucket is empty.
func (q *eventQueue) pop() (Time, event) {
	top := q.times[0]
	bk := &q.buckets[top.b]
	i := bk.head
	ev := q.slab[i]
	q.slab[i] = event{next: q.free}
	q.free = i
	q.n--
	if ev.next != 0 {
		bk.head = ev.next
		return top.at, ev
	}
	*bk = bucket{head: q.freeB}
	q.freeB = top.b
	q.index.del(top.at)
	n := len(q.times) - 1
	q.times[0] = q.times[n]
	q.times = q.times[:n]
	q.siftDown(0)
	return top.at, ev
}

// siftUp and siftDown move the entry at i through a hole instead of
// swapping at every level.
func (q *eventQueue) siftUp(i int) {
	t := q.times
	x := t[i]
	for i > 0 {
		parent := (i - 1) / 4
		if t[parent].at <= x.at {
			break
		}
		t[i] = t[parent]
		i = parent
	}
	t[i] = x
}

func (q *eventQueue) siftDown(i int) {
	t := q.times
	n := len(t)
	if n == 0 {
		return
	}
	x := t[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if t[c].at < t[m].at {
				m = c
			}
		}
		if x.at <= t[m].at {
			break
		}
		t[i] = t[m]
		i = m
	}
	t[i] = x
}

// timeIndex maps each pending time to its bucket: an open-addressed
// hash table with linear probing and backward-shift deletion (so
// deletes leave no tombstones), kept at most half full; b == 0 marks an
// empty slot. Every push looks a time up here, and a Go map in its
// place cost about a tenth of a commercial-workload run's CPU.
type timeIndex struct {
	slots []timeRef
	shift uint // 64 - log2(len(slots))
	n     int
}

// home is the slot where a probe for at starts (Fibonacci hashing).
func (x *timeIndex) home(at Time) int {
	return int(uint64(at) * 0x9E3779B97F4A7C15 >> x.shift)
}

// get returns the bucket of time at, or 0 if at is not pending.
func (x *timeIndex) get(at Time) int32 {
	if x.n == 0 {
		return 0
	}
	mask := len(x.slots) - 1
	for i := x.home(at); ; i = (i + 1) & mask {
		if s := x.slots[i]; s.b == 0 || s.at == at {
			return s.b
		}
	}
}

// put records that time at, not yet present, owns bucket b.
func (x *timeIndex) put(at Time, b int32) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		size := max(16, 2*len(old))
		x.slots = make([]timeRef, size)
		x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
		x.n = 0
		for _, s := range old {
			if s.b != 0 {
				x.put(s.at, s.b)
			}
		}
	}
	mask := len(x.slots) - 1
	i := x.home(at)
	for x.slots[i].b != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = timeRef{at, b}
	x.n++
}

// del removes time at, which must be present, then shifts back any
// later entry of the probe run whose home does not lie cyclically in
// (hole, entry], so every remaining entry stays reachable from its home.
func (x *timeIndex) del(at Time) {
	mask := len(x.slots) - 1
	i := x.home(at)
	for x.slots[i].b == 0 || x.slots[i].at != at {
		i = (i + 1) & mask
	}
	x.n--
	for j := i; ; {
		x.slots[i] = timeRef{}
		for {
			j = (j + 1) & mask
			if x.slots[j].b == 0 {
				return
			}
			k := x.home(x.slots[j].at)
			if (i < j && (k <= i || k > j)) || (i > j && k <= i && k > j) {
				break
			}
		}
		x.slots[i] = x.slots[j]
		i = j
	}
}

// CancelCheckEvery is the amortized cancellation polling interval: Run
// and RunUntil poll the installed context (see SetContext) once per
// this many fired events, so after the context is cancelled the engine
// stops within at most CancelCheckEvery further events — the documented
// cancellation bound. A power of two keeps the poll gate a single AND.
const CancelCheckEvery = 1024

// Engine is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	pq      eventQueue
	now     Time
	stopped bool
	// ctx is the cancellation source (nil when the engine cannot be
	// cancelled — the common case, and the zero-overhead one).
	ctx         context.Context
	interrupted bool
	// Executed counts events that have fired; useful as a progress and
	// live-lock guard in tests.
	Executed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// SetContext installs ctx as the engine's cancellation source: Run and
// RunUntil poll it once every CancelCheckEvery events and stop early
// when it is cancelled, so a timed-out or abandoned run releases its
// core within a bounded number of events. A nil context — or one that
// can never be cancelled, like context.Background() — removes the
// source entirely; uncancelled runs execute the exact same event
// sequence either way, so installing a live context never perturbs a
// deterministic result (pinned by the golden-figures tests).
func (e *Engine) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	e.ctx = ctx
	e.interrupted = false
}

// Interrupted reports whether the most recent Run or RunUntil stopped
// because the installed context was cancelled.
func (e *Engine) Interrupted() bool { return e.interrupted }

// Err returns the installed context's error if the engine was
// interrupted by it, nil otherwise.
func (e *Engine) Err() error {
	if !e.interrupted {
		return nil
	}
	return e.ctx.Err()
}

// pollCancel is the amortized cancellation check shared by Run and
// RunUntil. It reports true — and latches Interrupted — when the
// installed context has been cancelled, polling only once every
// CancelCheckEvery executed events.
func (e *Engine) pollCancel() bool {
	if e.ctx == nil || e.Executed%CancelCheckEvery != 0 {
		return false
	}
	if e.ctx.Err() == nil {
		return false
	}
	e.interrupted = true
	return true
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay d (>= 0). Events scheduled for the same
// instant fire in the order they were scheduled.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.pq.push(e.now+d, event{fn: fn})
}

// ScheduleAt runs fn at absolute time t (clamped to now).
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.Schedule(t-e.now, fn)
}

// ScheduleCall runs call(ctx, arg) after delay d (>= 0). It is the
// closure-free fast path: a package-level call function plus
// pointer-shaped ctx/arg schedules without any heap allocation, unlike
// Schedule, whose closure argument almost always escapes. Ordering
// relative to Schedule'd events is the shared (time, sequence) order.
func (e *Engine) ScheduleCall(d Time, call func(ctx, arg any), ctx, arg any) {
	if d < 0 {
		d = 0
	}
	e.pq.push(e.now+d, event{call: call, ctx: ctx, arg: arg})
}

// ScheduleCallAt is ScheduleCall at absolute time t (clamped to now).
func (e *Engine) ScheduleCallAt(t Time, call func(ctx, arg any), ctx, arg any) {
	if t < e.now {
		t = e.now
	}
	e.ScheduleCall(t-e.now, call, ctx, arg)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.pq.len() }

// Stop makes the currently executing Run return once the current event
// handler completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if e.pq.len() == 0 {
		return false
	}
	at, ev := e.pq.pop()
	e.now = at
	e.Executed++
	if ev.call != nil {
		ev.call(ev.ctx, ev.arg)
	} else {
		ev.fn()
	}
	return true
}

// Run fires events until the queue is empty, Stop is called, the
// event-count limit is exceeded (limit <= 0 means no limit), or the
// installed context is cancelled (see SetContext). It returns the
// final simulated time.
func (e *Engine) Run(limit uint64) Time {
	e.stopped = false
	e.interrupted = false
	start := e.Executed
	for !e.stopped && e.Step() {
		if limit > 0 && e.Executed-start >= limit {
			break
		}
		if e.pollCancel() {
			break
		}
	}
	return e.now
}

// RunUntil fires events until cond() is true (checked after every event),
// the queue drains, the event-count limit is exceeded, or the installed
// context is cancelled (distinguish the last case with Interrupted). It
// reports whether cond was satisfied.
func (e *Engine) RunUntil(cond func() bool, limit uint64) bool {
	e.stopped = false
	e.interrupted = false
	if cond() {
		return true
	}
	start := e.Executed
	for !e.stopped && e.Step() {
		if cond() {
			return true
		}
		if limit > 0 && e.Executed-start >= limit {
			return false
		}
		if e.pollCancel() {
			return false
		}
	}
	return cond()
}
