package cache

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"tokencmp/internal/mem"
)

type lineState struct{ v int }

func newTest(sizeBlocks, ways int) *Array[lineState] {
	return New[lineState](Params{SizeBytes: sizeBlocks * 64, Ways: ways, BlockSize: 64})
}

func TestLookupMissThenInstall(t *testing.T) {
	a := newTest(16, 4)
	if a.Lookup(5) != nil {
		t.Fatal("unexpected hit")
	}
	line, _, _, evicted := a.Install(5)
	if evicted {
		t.Fatal("eviction from empty cache")
	}
	line.State.v = 42
	got := a.Lookup(5)
	if got == nil || got.State.v != 42 {
		t.Fatal("lookup after install failed")
	}
}

func TestLRUEviction(t *testing.T) {
	a := newTest(4, 4) // one set of 4 ways... 4 blocks/4 ways = 1 set
	if a.Sets() != 1 {
		t.Fatalf("sets = %d, want 1", a.Sets())
	}
	for b := mem.Block(0); b < 4; b++ {
		a.Install(b)
	}
	a.Touch(0) // 0 most recent; 1 is LRU
	_, victim, _, evicted := a.Install(10)
	if !evicted || victim != 1 {
		t.Errorf("victim = %v (evicted=%v), want block 1", victim, evicted)
	}
}

func TestInstallExistingDoesNotEvict(t *testing.T) {
	a := newTest(4, 4)
	for b := mem.Block(0); b < 4; b++ {
		a.Install(b)
	}
	_, _, _, evicted := a.Install(2)
	if evicted {
		t.Error("reinstall of resident block evicted something")
	}
}

func TestInvalidate(t *testing.T) {
	a := newTest(16, 4)
	line, _, _, _ := a.Install(7)
	line.State.v = 9
	st, ok := a.Invalidate(7)
	if !ok || st.v != 9 {
		t.Fatalf("invalidate returned (%v, %v)", st, ok)
	}
	if a.Lookup(7) != nil {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := a.Invalidate(7); ok {
		t.Fatal("double invalidate reported a line")
	}
}

func TestInstallAvoidingPinned(t *testing.T) {
	a := newTest(4, 4)
	for b := mem.Block(0); b < 4; b++ {
		line, _, _, _ := a.Install(b)
		line.State.v = 1 // mark pinned via predicate below
	}
	avoid := func(st *lineState) bool { return st.v == 1 }
	_, _, _, _, ok := a.InstallAvoiding(20, avoid)
	if ok {
		t.Fatal("installed despite all ways pinned")
	}
	// Unpin one line; it must be chosen.
	a.Lookup(2).State.v = 0
	_, victim, _, wasEvicted, ok := a.InstallAvoiding(20, avoid)
	if !ok || !wasEvicted || victim != 2 {
		t.Errorf("victim = %v (ok=%v), want block 2", victim, ok)
	}
}

func TestSetIndexing(t *testing.T) {
	a := newTest(64, 4) // 16 sets
	// Blocks 0 and 16 map to the same set; fill it with the conflict
	// chain and confirm blocks in other sets survive.
	for i := 0; i < 5; i++ {
		a.Install(mem.Block(i * 16))
	}
	a.Install(1) // different set
	if a.Lookup(1) == nil {
		t.Fatal("cross-set interference")
	}
}

func TestForEachAndCount(t *testing.T) {
	a := newTest(16, 4)
	for b := mem.Block(0); b < 10; b++ {
		a.Install(b)
	}
	if a.Count() != 10 {
		t.Errorf("count = %d, want 10", a.Count())
	}
	sum := 0
	a.ForEach(func(b mem.Block, s *lineState) { sum += int(b) })
	if sum != 45 {
		t.Errorf("block sum = %d, want 45", sum)
	}
}

// Property: the cache never holds more valid lines than its capacity and
// never holds duplicates.
func TestPropertyCapacityAndUniqueness(t *testing.T) {
	f := func(blocks []uint8) bool {
		a := newTest(8, 2) // 4 sets × 2 ways
		for _, b := range blocks {
			a.Install(mem.Block(b))
		}
		if a.Count() > 8 {
			return false
		}
		seen := map[mem.Block]bool{}
		dup := false
		a.ForEach(func(b mem.Block, _ *lineState) {
			if seen[b] {
				dup = true
			}
			seen[b] = true
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a just-installed block is always resident.
func TestPropertyInstallThenHit(t *testing.T) {
	f := func(blocks []uint16) bool {
		a := newTest(32, 4)
		for _, b := range blocks {
			a.Install(mem.Block(b))
			if a.Lookup(mem.Block(b)) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNewAllocatesLazily pins the paged layout: building a Table 3 L2
// bank (2 MiB, 4-way, 8192 sets) allocates only the page directory,
// not the 32768 lines.
func TestNewAllocatesLazily(t *testing.T) {
	type l2State struct {
		tokens, owner int
		data          uint64
		held          int64
	}
	p := Params{SizeBytes: 2 << 20, Ways: 4, BlockSize: 64}
	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		sink = New[l2State](p)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Errorf("New allocates %d bytes per 2 MiB array, want < 64 KiB", per)
	}
}

var sink any

// eagerRef is a reference set-associative LRU array with every set
// allocated up front, the layout Array used before it was paged.
type eagerRef struct {
	sets [][]refLine
	tick uint64
}

type refLine struct {
	block    mem.Block
	valid    bool
	lru, val int
}

func (r *eagerRef) install(b mem.Block, val int) {
	set := r.sets[uint64(b)%uint64(len(r.sets))]
	var victim *refLine
	for i := range set {
		l := &set[i]
		if l.valid && l.block == b {
			r.tick++
			l.lru = int(r.tick)
			return
		}
		if victim == nil || (victim.valid && (!l.valid || l.lru < victim.lru)) {
			victim = l
		}
	}
	r.tick++
	*victim = refLine{block: b, valid: true, lru: int(r.tick), val: val}
}

func (r *eagerRef) invalidate(b mem.Block) {
	for i, l := range r.sets[uint64(b)%uint64(len(r.sets))] {
		if l.valid && l.block == b {
			r.sets[uint64(b)%uint64(len(r.sets))][i] = refLine{}
		}
	}
}

// TestForEachMatchesEagerReference drives a paged array (200 sets, so
// the last page is partial) and the eager reference through the same
// random Install/Invalidate sequence, then checks that ForEach visits
// the same lines in the same order and Count agrees.
func TestForEachMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const sets, ways = 200, 2
	a := newTest(sets*ways, ways)
	ref := &eagerRef{sets: make([][]refLine, sets)}
	for i := range ref.sets {
		ref.sets[i] = make([]refLine, ways)
	}
	for step := 0; step < 5000; step++ {
		b := mem.Block(rng.Intn(3000))
		if rng.Intn(3) == 0 {
			a.Invalidate(b)
			ref.invalidate(b)
			continue
		}
		l, _, _, _ := a.Install(b)
		if l.State.v == 0 {
			l.State.v = step + 1
		}
		ref.install(b, step+1)
	}
	type visit struct {
		b mem.Block
		v int
	}
	var got, want []visit
	a.ForEach(func(b mem.Block, s *lineState) { got = append(got, visit{b, s.v}) })
	for _, set := range ref.sets {
		for _, l := range set {
			if l.valid {
				want = append(want, visit{l.block, l.val})
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ForEach visited %d lines %v..., reference %d lines %v...", len(got), got[:min(4, len(got))], len(want), want[:min(4, len(want))])
	}
	if a.Count() != len(want) {
		t.Errorf("Count = %d, reference holds %d", a.Count(), len(want))
	}
}
