package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestServeScheduleDeterministic(t *testing.T) {
	for c := 0; c < serveClients; c++ {
		a, b := serveSchedule(42, c), serveSchedule(42, c)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("client %d: two schedules for seed 42 differ", c)
		}
		for i := range a {
			if !bytes.Equal(a[i].body(3), b[i].body(3)) {
				t.Fatalf("client %d request %d: bodies differ", c, i)
			}
		}
	}
	if !reflect.DeepEqual(newServe(42).pred, newServe(42).pred) {
		t.Fatal("predicted counts differ for one seed")
	}
	if reflect.DeepEqual(serveSchedule(42, 0), serveSchedule(43, 0)) {
		t.Fatal("seeds 42 and 43 gave the same schedule")
	}
}

// TestServePrediction checks the counts /metrics must match: every
// shape coldPerShape times as a run, repeatsPerCold hits after each,
// whatever the seed.
func TestServePrediction(t *testing.T) {
	colds := serveClients * len(serveShapes) * coldPerShape
	want := servePrediction{requests: colds * (1 + repeatsPerCold), hits: colds * repeatsPerCold, runs: colds}
	for _, seed := range []int64{1, 2, -7, 1 << 40} {
		if got := newServe(seed).pred; got != want {
			t.Errorf("seed %d: predicted %+v, want %+v", seed, got, want)
		}
	}
}

// TestServeKeysDisjoint checks that a key is sent cold exactly once,
// by one client, before any repeat of it, and that rounds use new keys.
func TestServeKeysDisjoint(t *testing.T) {
	for _, seed := range []int64{1, 99, -3} {
		owner := map[string]int{}
		for c := 0; c < serveClients; c++ {
			sched := serveSchedule(seed, c)
			for i, q := range sched {
				key := string(q.body(0))
				if q.cold {
					if prev, ok := owner[key]; ok {
						t.Fatalf("seed %d: key %s sent cold by client %d and client %d", seed, key, prev, c)
					}
					owner[key] = c
					if q.ref != i {
						t.Fatalf("seed %d client %d: cold request %d refers to %d", seed, c, i, q.ref)
					}
					continue
				}
				if q.ref >= i || !sched[q.ref].cold || string(sched[q.ref].body(0)) != key {
					t.Fatalf("seed %d client %d: request %d repeats %d, which is not an earlier cold request for its key", seed, c, i, q.ref)
				}
				if owner[key] != c {
					t.Fatalf("seed %d: client %d repeats a key of client %d", seed, c, owner[key])
				}
			}
		}
		q := serveSchedule(seed, 0)[0]
		if bytes.Equal(q.body(0), q.body(1)) {
			t.Fatalf("seed %d: rounds 0 and 1 send the same key", seed)
		}
	}
}
