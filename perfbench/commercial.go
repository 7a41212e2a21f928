package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"tokencmp/internal/cpu"
	"tokencmp/internal/experiments"
	"tokencmp/internal/machine"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/workload"
)

// The commercial workload regenerates Figures 6/7: both surrogates on
// the four protocols the figures compare, with the experiments' scaled
// commercial caches, one cell after another on one simulation thread.
var (
	commercialSurrogates = []string{"OLTP", "SPECjbb"}
	commercialProtocols  = []string{"DirectoryCMP", "HammerCMP", "TokenCMP-dst1", "PerfectL2"}
)

// seedVariants is how many input sets the commercial workload has:
// the benchmark seed picks one, and each has pinned results.
const seedVariants = 8

// cellResult is what one cell's simulation produced. The pins in
// commercial_pins.json hold it for every cell of every seed variant.
type cellResult struct {
	Runtime    sim.Time `json:"runtime"`
	Events     uint64   `json:"events"`
	Messages   uint64   `json:"messages"`
	IntraBytes uint64   `json:"intra_bytes"`
	InterBytes uint64   `json:"inter_bytes"`
	Misses     uint64   `json:"l1_misses"`
	Persistent uint64   `json:"persistent"`
}

func resultOf(res machine.Result) cellResult {
	t := &res.Traffic
	return cellResult{
		Runtime:    res.Runtime,
		Events:     res.Events,
		Messages:   t.TotalMessages(stats.IntraCMP) + t.TotalMessages(stats.InterCMP),
		IntraBytes: t.TotalBytes(stats.IntraCMP),
		InterBytes: t.TotalBytes(stats.InterCMP),
		Misses:     res.Misses,
		Persistent: res.Persistent,
	}
}

//go:embed commercial_pins.json
var pinsJSON []byte

// pinFile is the layout of commercial_pins.json: Variants[v][i] is
// cell i (surrogate-major, as commercialCells orders them) of seed
// variant v.
type pinFile struct {
	Variants [][]cellResult `json:"variants"`
}

type cell struct {
	surrogate, protocol string
	seed                int64
	params              workload.CommercialParams
}

func (c cell) String() string { return c.surrogate + "/" + c.protocol }

func variantOf(seed int64) int {
	v := seed % seedVariants
	if v < 0 {
		v += seedVariants
	}
	return int(v)
}

// commercialCells lists the cells of one seed variant. Every cell gets
// its own simulation seed, derived from the variant.
func commercialCells(variant int) ([]cell, error) {
	opt := experiments.DefaultOptions()
	var cells []cell
	for _, s := range commercialSurrogates {
		params, err := experiments.CommercialParamsFor(s)
		if err != nil {
			return nil, err
		}
		params.TxnsPerProc = opt.TxnsPerProc
		for _, p := range commercialProtocols {
			seed := int64(1 + variant*len(commercialSurrogates)*len(commercialProtocols) + len(cells))
			cells = append(cells, cell{surrogate: s, protocol: p, seed: seed, params: params})
		}
	}
	return cells, nil
}

// machineConfig is the configuration experiments.RunCommercial builds
// for a cell.
func (c cell) machineConfig() machine.Config {
	opt := experiments.DefaultOptions()
	return machine.Config{
		Protocol:   c.protocol,
		Geom:       opt.Geom,
		Seed:       c.seed,
		L1Size:     opt.CommercialL1,
		L2BankSize: opt.CommercialL2Bank,
	}
}

// timedProgram counts and times the Next calls of the program it
// wraps (traced rounds only).
type timedProgram struct {
	inner cpu.Program
	calls *uint64
	ns    *int64
}

func (p timedProgram) Next(now sim.Time, last uint64) cpu.Action {
	t0 := time.Now()
	a := p.inner.Next(now, last)
	*p.ns += int64(time.Since(t0))
	*p.calls++
	return a
}

// runCell makes the calls experiments makes for one cell: machine.New,
// then workload.CommercialPrograms, then Machine.RunCtx.
func runCell(c cell, tr *tracer, op string, l *commercialLayers) (cellResult, error) {
	cellSpan := tr.begin("cell", 0, op)
	defer tr.end(cellSpan)

	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.begin("machine.New", cellSpan, op)
	m, err := machine.New(c.machineConfig())
	tr.end(sp)
	if err != nil {
		return cellResult{}, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		l.constructBytes = append(l.constructBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}

	sp = tr.begin("workload.CommercialPrograms", cellSpan, op)
	progs, mon := workload.CommercialPrograms(c.params, c.machineConfig().Geom.TotalProcs(), c.seed)
	tr.end(sp)
	if tr != nil {
		for i, p := range progs {
			progs[i] = timedProgram{inner: p, calls: &l.nextCalls, ns: &l.nextNs}
		}
	}

	sp = tr.begin("machine.RunCtx", cellSpan, op)
	res, err := m.RunCtx(context.Background(), progs, 0)
	d := tr.end(sp)
	if err != nil {
		return cellResult{}, err
	}
	if len(mon.Violations) > 0 {
		return cellResult{}, fmt.Errorf("lock monitor: %s", mon.Violations[0])
	}
	if tr != nil {
		l.runNs += int64(d)
		l.events += res.Events
	}
	return resultOf(res), nil
}

// commercialLayers accumulates the traced rounds' per-layer numbers.
type commercialLayers struct {
	constructBytes []float64
	nextCalls      uint64
	nextNs, runNs  int64
	events         uint64
	rounds         int
}

type commercial struct {
	variant int
	cells   []cell
	pins    []cellResult
	first   []cellResult // round results, for the counts
	layers  commercialLayers
	err     error
}

func newCommercial(seed int64) *commercial {
	w := &commercial{variant: variantOf(seed)}
	w.cells, w.err = commercialCells(w.variant)
	if w.err == nil {
		w.pins, w.err = loadPins(w.variant, len(w.cells))
	}
	return w
}

// loadPins returns the pinned results of one seed variant's cells.
func loadPins(variant, cells int) ([]cellResult, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("commercial_pins.json: %w", err)
	}
	if len(pf.Variants) != seedVariants || len(pf.Variants[variant]) != cells {
		return nil, fmt.Errorf("commercial_pins.json: want %d seed variants of %d cells", seedVariants, cells)
	}
	return pf.Variants[variant], nil
}

func (w *commercial) describe() string {
	opt := experiments.DefaultOptions()
	return fmt.Sprintf("Figures 6/7, %v x %v with %d KiB L1 / %d KiB L2 banks, %d txns/proc on %d processors; %d cells per round on one simulation thread; seed variant %d of %d; throughput is simulated events per host second",
		commercialSurrogates, commercialProtocols, opt.CommercialL1>>10, opt.CommercialL2Bank>>10,
		opt.TxnsPerProc, opt.Geom.TotalProcs(), len(w.cells), w.variant, seedVariants)
}

// setUp builds one machine and one program set per protocol, so the
// timed rounds start with the allocator and code warm.
func (w *commercial) setUp() error {
	if w.err != nil {
		return w.err
	}
	for _, c := range w.cells[:len(commercialProtocols)] {
		if _, err := machine.New(c.machineConfig()); err != nil {
			return err
		}
		workload.CommercialPrograms(c.params, c.machineConfig().Geom.TotalProcs(), c.seed)
	}
	return nil
}

func (w *commercial) close() {}

func (w *commercial) round(r int, tr *tracer, ph *phase) {
	if tr != nil {
		w.layers.rounds++
	}
	got := make([]cellResult, len(w.cells))
	for i, c := range w.cells {
		ph.attempted++
		res, err := runCell(c, tr, fmt.Sprintf("r%d/%s", r, c), &w.layers)
		if err != nil {
			ph.fail("round %d cell %s: %v", r, c, err)
			continue
		}
		got[i] = res
		ph.work += float64(res.Events)
		if res != w.pins[i] {
			ph.fail("round %d cell %s (seed %d): got %+v, pinned %+v", r, c, c.seed, res, w.pins[i])
		}
	}
	if w.first == nil {
		w.first = got
	}
}

// finish prints the simulated counts of one round; the pins make them
// exact for a given seed.
func (w *commercial) finish(_ int, _ *phase, layer map[string]float64) {
	var t cellResult
	for _, c := range w.first {
		t.Events += c.Events
		t.Messages += c.Messages
		t.IntraBytes += c.IntraBytes
		t.InterBytes += c.InterBytes
		t.Misses += c.Misses
		t.Persistent += c.Persistent
	}
	layer["sim.events"] = float64(t.Events)
	layer["network.messages"] = float64(t.Messages)
	layer["network.intra_bytes"] = float64(t.IntraBytes)
	layer["network.inter_bytes"] = float64(t.InterBytes)
	layer["cache.l1_misses"] = float64(t.Misses)
	layer["tokencmp.persistent"] = float64(t.Persistent)
}

func (w *commercial) traced(tr *tracer, _, _ *phase, layer map[string]float64) {
	l := &w.layers
	layer["machine.construct_ms"] = median(tr.durations("machine.New"))
	layer["machine.construct_mb"] = median(l.constructBytes) / 1e6
	layer["machine.run_ms"] = median(tr.durations("machine.RunCtx"))
	layer["workload.generate_ms"] = median(tr.durations("workload.CommercialPrograms"))
	layer["workload.next_calls"] = float64(l.nextCalls) / float64(l.rounds)
	layer["workload.next_share"] = float64(l.nextNs) / float64(l.runNs)
	layer["sim.host_ns_per_event"] = float64(l.runNs) / float64(l.events)
}

// printPins runs every cell of every seed variant once and writes the
// results in the layout of commercial_pins.json.
func printPins(out io.Writer) error {
	var pf pinFile
	for v := 0; v < seedVariants; v++ {
		cells, err := commercialCells(v)
		if err != nil {
			return err
		}
		var row []cellResult
		for _, c := range cells {
			res, err := runCell(c, nil, "", nil)
			if err != nil {
				return fmt.Errorf("variant %d cell %s: %w", v, c, err)
			}
			row = append(row, res)
		}
		pf.Variants = append(pf.Variants, row)
	}
	b, err := json.MarshalIndent(pf, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
