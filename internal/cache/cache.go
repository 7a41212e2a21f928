// Package cache provides a generic set-associative cache array with
// true-LRU replacement. Protocol controllers embed their per-line
// coherence state as the type parameter, so the same array implements
// MOESI L1s, token-counting L1s, and banked L2s.
package cache

import (
	"tokencmp/internal/mem"
)

// Line couples a block tag with protocol state.
type Line[S any] struct {
	Block mem.Block
	Valid bool
	State S

	lru uint64
}

// pageSets is the number of sets in one page of an Array.
const pageSets = 64

// Array is a set-associative cache with true-LRU replacement. Its sets
// live in pages of pageSets sets that are allocated the first time one
// of their sets is touched, so a large, mostly idle array (a Table 3 L2
// bank in a short run) costs only the pages its blocks map to.
type Array[S any] struct {
	sets, ways int
	pages      [][]Line[S] // pages[p] holds sets p*pageSets onwards; nil until touched
	tick       uint64
}

// Params sizes an array.
type Params struct {
	SizeBytes int
	Ways      int
	BlockSize int
}

// Sets computes the number of sets implied by the parameters.
func (p Params) Sets() int {
	s := p.SizeBytes / (p.Ways * p.BlockSize)
	if s < 1 {
		s = 1
	}
	return s
}

// New builds an array with the given geometry.
func New[S any](p Params) *Array[S] {
	sets := p.Sets()
	return &Array[S]{sets: sets, ways: p.Ways, pages: make([][]Line[S], (sets+pageSets-1)/pageSets)}
}

// Sets reports the number of sets.
func (a *Array[S]) Sets() int { return a.sets }

// Ways reports the associativity.
func (a *Array[S]) Ways() int { return a.ways }

func (a *Array[S]) set(b mem.Block) []Line[S] {
	s := int(uint64(b) % uint64(a.sets))
	p := s / pageSets
	if a.pages[p] == nil {
		a.pages[p] = make([]Line[S], min(pageSets, a.sets-p*pageSets)*a.ways)
	}
	off := s % pageSets * a.ways
	return a.pages[p][off : off+a.ways : off+a.ways]
}

// Lookup returns the line holding b, or nil. It does not touch LRU state;
// call Touch on a hit that should refresh recency.
func (a *Array[S]) Lookup(b mem.Block) *Line[S] {
	set := a.set(b)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			return &set[i]
		}
	}
	return nil
}

// Touch marks b most recently used.
func (a *Array[S]) Touch(b mem.Block) {
	if l := a.Lookup(b); l != nil {
		a.TouchLine(l)
	}
}

// TouchLine marks an already-found line most recently used, skipping
// Touch's set rescan.
func (a *Array[S]) TouchLine(l *Line[S]) {
	a.tick++
	l.lru = a.tick
}

// Victim returns the line that would be replaced to make room for b: an
// invalid way if one exists, otherwise the LRU line of b's set. The
// returned line may hold live state the caller must write back before
// calling Install.
func (a *Array[S]) Victim(b mem.Block) *Line[S] {
	set := a.set(b)
	var victim *Line[S]
	for i := range set {
		if !set[i].Valid {
			return &set[i]
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// Install claims a line for b, evicting per Victim. It returns the new
// line plus, if a live line was displaced, its block and former state so
// the caller can write it back. The new line's State is the zero value.
// The hit line, an invalid way, and the LRU victim are all found in one
// scan of the set (the old Lookup+Touch+Victim sequence scanned it three
// times).
func (a *Array[S]) Install(b mem.Block) (line *Line[S], evicted mem.Block, victimState S, wasEvicted bool) {
	var zero S
	set := a.set(b)
	var victim *Line[S]
	for i := range set {
		l := &set[i]
		if !l.Valid {
			if victim == nil || victim.Valid {
				victim = l // first invalid way wins over any LRU choice
			}
			continue
		}
		if l.Block == b {
			a.TouchLine(l)
			return l, 0, zero, false
		}
		if victim == nil || (victim.Valid && l.lru < victim.lru) {
			victim = l
		}
	}
	if victim.Valid {
		evicted, victimState, wasEvicted = victim.Block, victim.State, true
	}
	victim.Block = b
	victim.Valid = true
	victim.State = zero
	a.tick++
	victim.lru = a.tick
	return victim, evicted, victimState, wasEvicted
}

// InstallAvoiding is Install with a victim predicate: lines for which
// avoid returns true (e.g. lines pinned by an in-flight transaction) are
// never displaced. It reports ok=false, installing nothing, if every way
// of b's set is unavailable.
func (a *Array[S]) InstallAvoiding(b mem.Block, avoid func(st *S) bool) (line *Line[S], evicted mem.Block, victimState S, wasEvicted, ok bool) {
	var zero S
	set := a.set(b)
	// One scan finds the hit line, the first invalid way, and the LRU
	// victim together (the old Lookup-then-victim-scan walked the set
	// twice).
	var victim *Line[S]
	for i := range set {
		l := &set[i]
		if !l.Valid {
			if victim == nil || victim.Valid {
				victim = l // first invalid way wins over any LRU choice
			}
			continue
		}
		if l.Block == b {
			a.TouchLine(l)
			return l, 0, zero, false, true
		}
		if avoid != nil && avoid(&l.State) {
			continue
		}
		if victim == nil || (victim.Valid && l.lru < victim.lru) {
			victim = l
		}
	}
	if victim == nil {
		return nil, 0, zero, false, false
	}
	if victim.Valid {
		evicted, victimState, wasEvicted = victim.Block, victim.State, true
	}
	victim.Block = b
	victim.Valid = true
	victim.State = zero
	a.tick++
	victim.lru = a.tick
	return victim, evicted, victimState, wasEvicted, true
}

// Invalidate drops b if present, returning its former state.
func (a *Array[S]) Invalidate(b mem.Block) (S, bool) {
	var zero S
	if l := a.Lookup(b); l != nil {
		st := l.State
		l.Valid = false
		l.State = zero
		return st, true
	}
	return zero, false
}

// ForEach visits every valid line, in set order and way order within
// a set.
func (a *Array[S]) ForEach(fn func(b mem.Block, s *S)) {
	for _, page := range a.pages {
		for i := range page {
			if l := &page[i]; l.Valid {
				fn(l.Block, &l.State)
			}
		}
	}
}

// Count reports the number of valid lines.
func (a *Array[S]) Count() int {
	n := 0
	a.ForEach(func(mem.Block, *S) { n++ })
	return n
}
