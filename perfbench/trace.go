package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// operation (a cell, a request, a model check) share its op id.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// durations returns the durations, in ms, of the closed spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return ms
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Profile buckets. A CPU sample is charged to exactly one bucket, so
// the shares of a profile sum to one:
//  1. runtime.gc if any frame of its stack is garbage-collector work;
//  2. runtime.memclr if its leaf frame zeroes memory;
//  3. otherwise the first frame, walking from the leaf towards the
//     root, whose package names a layer; runtime and standard-library
//     helpers (allocation, bytes.Compare, syscalls) are thereby
//     charged to the layer that called them;
//  4. runtime.other if no frame names a layer and the leaf is in the
//     runtime (scheduler, idle), else other.
var profileBuckets = []struct{ name, metric string }{
	{"sim", "sim.cpu_share"},
	{"network", "network.cpu_share"},
	{"cache", "cache.cpu_share"},
	{"topo", "topo.cpu_share"},
	{"protocol", "protocol.cpu_share"},
	{"cpu", "cpu.cpu_share"},
	{"workload", "workload.cpu_share"},
	{"machine", "machine.cpu_share"},
	{"simd", "simd.cpu_share"},
	{"net_http", "net_http.cpu_share"},
	{"json", "json.cpu_share"},
	{"mc.canon", "mc.canon_cpu_share"},
	{"mc.table", "mc.table_cpu_share"},
	{"mc.models", "mc.models_cpu_share"},
	{"mc", "mc.cpu_share"},
	{"repo.other", "repo_other.cpu_share"},
	{"harness", "harness.cpu_share"},
	{"runtime.gc", "runtime.gc_cpu_share"},
	{"runtime.memclr", "runtime.memclr_cpu_share"},
	{"runtime.other", "runtime.other_cpu_share"},
	{"other", "other.cpu_share"},
}

// gcFrames are the runtime functions that root garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
}

// layerPackages maps the repository's packages to their bucket.
var layerPackages = map[string]string{
	"tokencmp/internal/sim":       "sim",
	"tokencmp/internal/network":   "network",
	"tokencmp/internal/cache":     "cache",
	"tokencmp/internal/topo":      "topo",
	"tokencmp/internal/tokencmp":  "protocol",
	"tokencmp/internal/token":     "protocol",
	"tokencmp/internal/directory": "protocol",
	"tokencmp/internal/hammercmp": "protocol",
	"tokencmp/internal/perfectl2": "protocol",
	"tokencmp/internal/cpu":       "cpu",
	"tokencmp/internal/workload":  "workload",
	"tokencmp/internal/machine":   "machine",
	"tokencmp/internal/simd":      "simd",
	"tokencmp/internal/mc/models": "mc.models",
	"net/http":                    "net_http",
	"encoding/json":               "json",
	"main":                        "harness",
	"tokencmp/perfbench":          "harness", // the harness under go test
}

// funcPackage returns the import path of a profiled function name such
// as "tokencmp/internal/sim.(*Engine).Run", "runtime.mallocgc" or
// "tokencmp/internal/cache.(*Array[go.shape.struct { ... }]).Lookup".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments of a generic may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameBucket returns the layer bucket of one frame, or "" for a frame
// of no layer (runtime and standard-library helpers).
func frameBucket(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "tokencmp/internal/mc" {
		rest := fn[len(pkg)+1:]
		switch {
		case strings.HasPrefix(rest, "(*Canonicalizer)"), rest == "SortSlots",
			rest == "remapRef", rest == "refLive", rest == "isIdentity":
			return "mc.canon"
		case strings.HasPrefix(rest, "(*stateTable)"):
			return "mc.table"
		}
		return "mc"
	}
	if b, ok := layerPackages[pkg]; ok {
		return b
	}
	if strings.HasPrefix(pkg, "net/http/") {
		return "net_http"
	}
	if strings.HasPrefix(pkg, "tokencmp/") {
		return "repo.other"
	}
	return ""
}

// classify charges one stack (leaf first) to its bucket.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "runtime.gc"
			}
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	if strings.HasPrefix(stack[0], "runtime.memclr") {
		return "runtime.memclr"
	}
	for _, fn := range stack {
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	if funcPackage(stack[0]) == "runtime" {
		return "runtime.other"
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and returns the
// share of CPU time charged to each bucket, and the sample count.
func foldProfile(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byBucket := map[string]int64{}
	var total, samples int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		byBucket[classify(stack)] += v
		total += v
		samples += s.values[0]
	}
	shares := map[string]float64{}
	for b, v := range byBucket {
		shares[b] = float64(v) / float64(total)
	}
	return shares, samples, nil
}

// profile is the part of a pprof profile folding needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location → function ids, innermost inlined frame first
	funcName map[uint64]int64    // function → string-table index
	strings  []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the pprof protobuf message (profile.proto):
// Profile{2: Sample, 4: Location, 5: Function, 6: string_table},
// Sample{1: location_id, 2: value}, Location{1: id, 4: Line},
// Line{1: function_id}, Function{1: id, 2: name}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walkFields(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profSample
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, m)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("sample without values")
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			err := walkFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside string table", n)
		}
	}
	return p, nil
}

// walkFields calls fn for every field of a protobuf message: v is the
// value of a varint field, msg the bytes of a length-delimited one.
func walkFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = readVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (msg) or not.
func appendVarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := readVarint(msg)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
