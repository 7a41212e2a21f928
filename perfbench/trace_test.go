package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"tokencmp/internal/sim.(*Engine).Run":                  "tokencmp/internal/sim",
		"tokencmp/internal/mc/models.(*TokenModel).Successors": "tokencmp/internal/mc/models",
		"runtime.mallocgc":                                     "runtime",
		"net/http.(*conn).serve":                               "net/http",
		"encoding/json.(*decodeState).object":                  "encoding/json",
		"main.runCell":                                         "main",
		"tokencmp/internal/cache.(*Array[go.shape.struct { T tokencmp/internal/sim.Time }]).Lookup": "tokencmp/internal/cache",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"tokencmp/internal/sim.(*eventQueue).siftDown", "tokencmp/internal/sim.(*Engine).Step"}, "sim"},
		// Allocation is charged to the layer that allocated.
		{[]string{"runtime.mallocgc", "runtime.makeslice", "tokencmp/internal/cache.New"}, "cache"},
		// Zeroing is its own bucket, wherever it happens.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "tokencmp/internal/cache.New"}, "runtime.memclr"},
		// Collector work is its own bucket, even under a layer's frames.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "tokencmp/internal/cache.New"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"internal/bytealg.Compare", "tokencmp/internal/mc.(*Canonicalizer).Canonicalize"}, "mc.canon"},
		{[]string{"tokencmp/internal/mc.SortSlots"}, "mc.canon"},
		{[]string{"tokencmp/internal/mc.(*stateTable).lookup"}, "mc.table"},
		{[]string{"tokencmp/internal/mc.CheckOpt.func1"}, "mc"},
		{[]string{"tokencmp/internal/mc/models.(*HammerModel).Successors"}, "mc.models"},
		{[]string{"tokencmp/internal/directory.(*L2Bank).handle"}, "protocol"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net/http.(*persistConn).writeLoop"}, "net_http"},
		{[]string{"reflect.Value.Field", "encoding/json.(*decodeState).object", "tokencmp/internal/simd.(*Daemon).handleRun"}, "json"},
		{[]string{"tokencmp/internal/stats.(*Sample).Add"}, "repo.other"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime.other"},
		{[]string{"syscall.Syscall", "os.(*File).Read"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestBucketsCoverClassify checks that every bucket classify can return
// has a per-layer metric, so the printed shares sum to the profile.
func TestBucketsCoverClassify(t *testing.T) {
	metrics := map[string]bool{}
	for _, d := range layerMetrics {
		if metrics[d.name] {
			t.Errorf("per-layer metric %s listed twice", d.name)
		}
		metrics[d.name] = true
	}
	buckets := map[string]bool{}
	for _, b := range profileBuckets {
		buckets[b.name] = true
		if !metrics[b.metric] {
			t.Errorf("bucket %s: metric %s is not a per-layer metric", b.name, b.metric)
		}
	}
	names := []string{"runtime.gc", "runtime.memclr", "runtime.other", "other", "repo.other", "mc", "mc.canon", "mc.table"}
	for _, b := range layerPackages {
		names = append(names, b)
	}
	for _, n := range names {
		if !buckets[n] {
			t.Errorf("classify can return %q, which has no profile bucket", n)
		}
	}
}

// TestFoldProfileSumsToOne folds a real CPU profile of a busy loop.
func TestFoldProfileSumsToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("profile holds no samples")
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", total, shares)
	}
	if shares["harness"] < 0.5 {
		t.Errorf("busy loop in package main got harness share %v: %v (x=%v)", shares["harness"], shares, x)
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	// Profile{6: "" , 6: "f", 5: Function{1: 1, 2: 1}}, cut mid-field.
	full := []byte{0x32, 0x00, 0x32, 0x01, 'f', 0x2a, 0x04, 0x08, 0x01, 0x10, 0x01}
	p, err := parseProfile(full)
	if err != nil || p.strings[p.funcName[1]] != "f" {
		t.Fatalf("parseProfile(valid) = %+v, %v", p, err)
	}
	for n := 1; n < len(full); n++ {
		if n == 2 || n == 5 {
			continue // cut between two fields: a valid shorter message
		}
		if _, err := parseProfile(full[:n]); err == nil {
			t.Errorf("parseProfile accepted the first %d of %d bytes", n, len(full))
		}
	}
}
