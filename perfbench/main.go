// Command perfbench is the repository benchmark. One binary times the
// three things the code is for: regenerating the commercial figures
// (Figures 6/7), serving simulations through simd over loopback HTTP,
// and model checking the protocols (Section 5). Every run checks its
// outputs and exits non-zero if any is wrong.
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload commercial --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The
// lines before it give each metric with its unit and sample count.
// NOTES.md explains the workloads and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// traceDir receives a traced run's spans and CPU profile; run.sh
// builds into the same directory, which the repository ignores.
const traceDir = ".bench_build/traces"

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 15

// bench is one benchmark workload. measure sets it up setupReps
// times (closing all but the last), runs timed rounds until the time
// budget is spent, then lets it check and report.
type bench interface {
	// describe is the one-line statement of what a round does.
	describe() string
	setUp() error
	close()
	// round runs timed round r. It adds the work units it completed,
	// its operation latencies and its failures to ph; tr is nil in
	// untraced rounds.
	round(r int, tr *tracer, ph *phase)
	// finish checks end-of-run outputs (counters the rounds cannot see
	// one at a time) and fills the counts every run prints into layer.
	finish(rounds int, ph *phase, layer map[string]float64)
	// traced measures the per-layer metrics that need the harness's own
	// calls into a layer (after the traced rounds, unprofiled) and
	// reports any wrong output it sees to untraced.
	traced(tr *tracer, untraced, tracedPh *phase, layer map[string]float64)
}

// phase collects what a run of rounds measured.
type phase struct {
	rounds    []float64 // wall seconds per round
	work      float64   // work units done (events, responses, states)
	cold      []float64 // ms per simulating request (serve)
	warm      []float64 // ms per cache-hit request (serve)
	attempted int
	failures  []string
	alloc     uint64 // bytes allocated during the rounds
}

func (ph *phase) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(ph.failures) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	ph.failures = append(ph.failures, msg)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "commercial, serve or modelcheck")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "time budget of the timed rounds")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		pin     = flag.Bool("pin", false, "print the commercial workload's pinned results for every seed variant and exit")
	)
	flag.Parse()
	if *pin {
		if err := printPins(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w bench
	switch *name {
	case "commercial":
		w = newCommercial(*seed)
	case "serve":
		w = newServe(*seed)
	case "modelcheck":
		w = newModelcheck()
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (commercial, serve, modelcheck)\n", *name)
		os.Exit(2)
	}
	fmt.Printf("workload %s, seed %d: %s\n", *name, *seed, w.describe())
	res, err := measure(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs one workload: set-up, timed rounds, checks. In a traced
// run the budget is split between untraced rounds (the baseline for
// the tracing overhead) and traced rounds under the CPU profiler.
func measure(w bench, name string, seed int64, budget time.Duration, traced bool) (*result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	layer := map[string]float64{}
	if !traced {
		ph := runRounds(w, 0, budget, nil)
		w.finish(len(ph.rounds), ph, layer)
		return endToEnd(name, setups, ph, layer), nil
	}

	base := runRounds(w, 0, budget/2, nil)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	tph := runRounds(w, len(base.rounds), budget/2, tr)
	pprof.StopCPUProfile()
	w.traced(tr, base, tph, layer)
	all := &phase{
		rounds:    append(append([]float64(nil), base.rounds...), tph.rounds...),
		attempted: base.attempted + tph.attempted,
		failures:  append(append([]string(nil), base.failures...), tph.failures...),
		work:      base.work + tph.work,
	}
	w.finish(len(all.rounds), all, layer)

	shares, samples, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("fold CPU profile: %w", err)
	}
	for _, b := range profileBuckets {
		layer[b.metric] = shares[b.name]
	}
	layer["profile.samples"] = float64(samples)
	layer["trace.overhead_s"] = median(tph.rounds) - median(base.rounds)

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(stem+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(stem + ".spans.json"); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans in %s.spans.json, CPU profile (%d samples) in %s.cpu.pprof\n",
		len(tr.spans), stem, samples, stem)
	return perLayer(all, layer), nil
}

// runRounds runs timed rounds, numbered from first, while the next
// round is expected to end within budget (at least two rounds, so a
// median exists). Each round starts from a collected heap so one
// round's garbage does not bill the next.
func runRounds(w bench, first int, budget time.Duration, tr *tracer) *phase {
	ph := &phase{}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	spent := 0.0
	for r := first; len(ph.rounds) < 2 || spent+median(ph.rounds) <= budget.Seconds(); r++ {
		runtime.GC()
		t0 := time.Now()
		w.round(r, tr, ph)
		d := time.Since(t0).Seconds()
		ph.rounds = append(ph.rounds, d)
		spent += d
	}
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	return ph
}

// endToEnd assembles the untraced run's result and prints each metric
// with its unit and sample count.
func endToEnd(name string, setups []float64, ph *phase, layer map[string]float64) *result {
	rounds := float64(len(ph.rounds))
	unit := map[string]string{"commercial": "events", "serve": "responses", "modelcheck": "states"}[name]
	m := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(ph.rounds), "s"},
		"throughput":  {ph.work / rounds / median(ph.rounds), "1/s"},
		"alloc_mb":    {float64(ph.alloc) / rounds / 1e6, "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	fmt.Printf("%-12s %14.6f s        median of %d set-ups\n", "setup_s", m["setup_s"].Value, len(setups))
	fmt.Printf("%-12s %14.6f s        median of %d rounds\n", "wall_s", m["wall_s"].Value, len(ph.rounds))
	fmt.Printf("%-12s %14.1f %s/s  %.0f %s per round / median round\n", "throughput", m["throughput"].Value, unit, ph.work/rounds, unit)

	// Latency: simulating requests on serve; on the batch workloads the
	// operation a user waits for is the whole round.
	if name == "serve" {
		m["p50_ms"] = metric{median(ph.cold), "ms"}
		fmt.Printf("%-12s %14.3f ms       median of %d cold requests\n", "p50_ms", m["p50_ms"].Value, len(ph.cold))
		v, pct, windows, ok := windowTail(ph.cold, tailWindowRounds*len(ph.cold)/len(ph.rounds))
		if !ok {
			v = m["p50_ms"].Value
		}
		m["tail_ms"] = metric{v, "ms"}
		fmt.Printf("%-12s %14.3f ms       p%.1f of each %d-round window of cold requests, median of %d windows\n",
			"tail_ms", v, pct, tailWindowRounds, windows)
		printLatency("warm", ph.warm, len(ph.rounds))
	} else {
		ms := make([]float64, len(ph.rounds))
		for i, s := range ph.rounds {
			ms[i] = s * 1000
		}
		m["p50_ms"] = metric{median(ms), "ms"}
		fmt.Printf("%-12s %14.3f ms       median of %d rounds\n", "p50_ms", m["p50_ms"].Value, len(ms))
		v, pct, ok := tail(ms)
		if !ok {
			// Too few rounds for a percentile at or above the median with
			// ten beyond it; the best supported figure is the median (the
			// slowest round alone would measure the host's worst moment,
			// not the program).
			v, pct = m["p50_ms"].Value, 50
		}
		m["tail_ms"] = metric{v, "ms"}
		fmt.Printf("%-12s %14.3f ms       p%.1f of %d rounds (with fewer than %d rounds, the median)\n",
			"tail_ms", v, pct, len(ms), 2*tailBeyond+1)
	}
	fmt.Printf("%-12s %14.3f MB       per round, %d rounds\n", "alloc_mb", m["alloc_mb"].Value, len(ph.rounds))
	fmt.Printf("%-12s %14.3f MB       VmHWM of the process\n", "peak_rss_mb", m["peak_rss_mb"].Value)
	printLayer(layer)
	return &result{Correct: len(ph.failures) == 0, Attempted: ph.attempted, Failed: len(ph.failures), Metrics: m}
}

// tailWindowRounds is how many serve rounds make one window of the
// windowed tail: 4 rounds of 36 cold requests put it at p93.1.
const tailWindowRounds = 4

// printLatency prints one latency class that is not an end-to-end
// metric of every workload (serve's cache hits).
func printLatency(class string, ms []float64, rounds int) {
	fmt.Printf("%-12s %14.3f ms       median of %d %s requests\n", class+"_p50", median(ms), len(ms), class)
	if v, pct, windows, ok := windowTail(ms, tailWindowRounds*len(ms)/rounds); ok {
		fmt.Printf("%-12s %14.3f ms       p%.1f of each %d-round window of %s requests, median of %d windows\n",
			class+"_tail", v, pct, tailWindowRounds, class, windows)
	}
}

// perLayer assembles the traced run's result: every per-layer metric,
// zero where the workload does not exercise that layer.
func perLayer(ph *phase, layer map[string]float64) *result {
	m := map[string]metric{}
	for _, d := range layerMetrics {
		m[d.name] = metric{layer[d.name], d.unit}
	}
	printLayer(layer)
	return &result{Correct: len(ph.failures) == 0, Attempted: ph.attempted, Failed: len(ph.failures), Metrics: m}
}

func printLayer(layer map[string]float64) {
	names := make([]string, 0, len(layer))
	for n := range layer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %16.6g %s\n", n, layer[n], layerUnit(n))
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
