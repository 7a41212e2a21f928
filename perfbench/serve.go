package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tokencmp/internal/cpu"
	"tokencmp/internal/machine"
	"tokencmp/internal/sim"
	"tokencmp/internal/simd"
	"tokencmp/internal/stats"
	"tokencmp/internal/topo"
	"tokencmp/internal/workload"
)

const (
	// serveClients closed-loop clients share the daemon; each sends its
	// next request only after the previous answer has been read.
	serveClients = 2
	// repeatsPerCold: each new key a client sends is followed by this
	// many requests for keys it has already sent in the round.
	repeatsPerCold = 2
)

// serveShapes are the request shapes, each a default-sized experiment
// in the light admission class. They are chosen so their cold runs
// cost about the same (20-45 ms on a 2-core x86 host): the cold
// latency percentiles then fall inside one dense cluster, not in the
// gap between a 2 ms shape and a 400 ms one, where they would jump
// with the sample count.
var serveShapes = []struct{ protocol, workload string }{
	{"DirectoryCMP", "locking"},
	{"DirectoryCMP-zero", "locking"},
	{"TokenCMP-dst1", "locking"},
	{"TokenCMP-dst1-pred", "locking"},
	{"TokenCMP-dst1-filt", "locking"},
	{"TokenCMP-dst4", "locking"},
	{"PerfectL2", "barrier"},
	{"DirectoryCMP", "barrier"},
	{"DirectoryCMP-zero", "barrier"},
}

// coldPerShape is how many new keys of each shape a client sends per
// round (with different simulation seeds).
const coldPerShape = 2

// serveReq is one request of a client's round schedule.
type serveReq struct {
	protocol, workload string
	seed               int64
	cold               bool // first request for its key
	ref                int  // schedule index of the cold request whose key this is
}

// body is the request's JSON. Round r sets txns, which locking and
// barrier runs ignore, to r+1: each round's keys are new to the cache
// while the simulated work repeats exactly.
func (q serveReq) body(round int) []byte {
	return []byte(fmt.Sprintf(`{"protocol":%q,"workload":%q,"seed":%d,"txns":%d}`,
		q.protocol, q.workload, q.seed, round+1))
}

// serveSchedule returns one client's requests for a round: every
// shape coldPerShape times as a new key, in seeded order, each
// followed by repeatsPerCold repeats of keys the client sent earlier
// in the round. The simulation seed carries the client's id, so client
// key spaces are disjoint and whether a request hits the cache is a
// function of the schedule alone.
func serveSchedule(seed int64, client int) []serveReq {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	var shapes []serveReq
	for _, sh := range serveShapes {
		for i := 0; i < coldPerShape; i++ {
			shapes = append(shapes, serveReq{protocol: sh.protocol, workload: sh.workload})
		}
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	var reqs []serveReq
	var colds []int
	for k, q := range shapes {
		q.seed = int64(uint64(seed)&0xffff)<<24 | int64(client)<<16 | int64(k+1)
		q.cold, q.ref = true, len(reqs)
		colds = append(colds, len(reqs))
		reqs = append(reqs, q)
		for j := 0; j < repeatsPerCold; j++ {
			w := reqs[colds[rng.Intn(len(colds))]]
			w.cold = false
			reqs = append(reqs, w)
		}
	}
	return reqs
}

// servePrediction is what /metrics must count per round.
type servePrediction struct{ requests, hits, runs int }

func predict(scheds [][]serveReq) servePrediction {
	var p servePrediction
	for _, s := range scheds {
		for _, q := range s {
			p.requests++
			if q.cold {
				p.runs++
			} else {
				p.hits++
			}
		}
	}
	return p
}

type serve struct {
	scheds [][]serveReq
	pred   servePrediction

	d      *simd.Daemon
	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	first [][][]byte // round-0 cold bodies, by client and schedule index
}

func newServe(seed int64) *serve {
	w := &serve{}
	for c := 0; c < serveClients; c++ {
		w.scheds = append(w.scheds, serveSchedule(seed, c))
	}
	w.pred = predict(w.scheds)
	return w
}

func (w *serve) describe() string {
	return fmt.Sprintf("simd in-process over loopback HTTP, memory-only cache; %d closed-loop clients with disjoint keys, %d requests per round (%d cold, %d cache hits) over %d default-sized locking/barrier shapes; throughput is 200 responses per host second, p50_ms/tail_ms are cold (simulating) requests",
		serveClients, w.pred.requests, w.pred.runs, w.pred.hits, len(serveShapes))
}

// setUp boots the daemon behind a loopback listener and waits until
// it answers /readyz.
func (w *serve) setUp() error {
	d, err := simd.New(simd.Config{CacheEntries: 1 << 16, CacheTTL: 24 * time.Hour})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return err
	}
	w.d = d
	w.srv = &http.Server{Handler: d.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	resp, err := w.client.Get(w.url + "/readyz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/readyz: %s", resp.Status)
	}
	return nil
}

// close shuts the listener and daemon down and waits for the server
// goroutine to exit.
func (w *serve) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx)
	<-w.served
	w.d.Close()
	w.client.CloseIdleConnections()
	w.srv = nil
}

// post sends one request and returns its status, cache header and body.
func (w *serve) post(body []byte) (int, string, []byte, error) {
	resp, err := w.client.Post(w.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Simd-Cache"), b, err
}

// clientRound is what one client saw in one round.
type clientRound struct {
	cold, warm []float64
	ok         int
	failures   []string
	bodies     [][]byte // cold bodies by schedule index
}

func (w *serve) round(r int, tr *tracer, ph *phase) {
	results := make([]clientRound, serveClients)
	var wg sync.WaitGroup
	for c := range w.scheds {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = w.runClient(r, c, tr)
		}(c)
	}
	wg.Wait()
	for c, cr := range results {
		ph.attempted += len(w.scheds[c])
		ph.work += float64(cr.ok)
		ph.cold = append(ph.cold, cr.cold...)
		ph.warm = append(ph.warm, cr.warm...)
		for _, f := range cr.failures {
			ph.fail("round %d client %d: %s", r, c, f)
		}
	}
	if w.first == nil {
		w.first = make([][][]byte, serveClients)
		for c, cr := range results {
			w.first[c] = cr.bodies
		}
	}
}

// runClient sends client c's schedule for round r, checking every
// answer: 200, the predicted cache state, a sane cold body that
// matches round 0's body for the same simulation, and warm bodies
// byte-identical to their key's cold body.
func (w *serve) runClient(r, c int, tr *tracer) clientRound {
	sched := w.scheds[c]
	cr := clientRound{bodies: make([][]byte, len(sched))}
	for i, q := range sched {
		class := "warm"
		if q.cold {
			class = "cold"
		}
		sp := tr.begin("request."+class, 0, fmt.Sprintf("r%d/c%d/%d", r, c, i))
		t0 := time.Now()
		status, cache, body, err := w.post(q.body(r))
		ms := float64(time.Since(t0)) / 1e6
		tr.end(sp)
		var bad string
		switch {
		case err != nil:
			bad = err.Error()
		case status != http.StatusOK:
			bad = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
		case q.cold && cache != "miss", !q.cold && cache != "hit":
			bad = fmt.Sprintf("X-Simd-Cache %q for a %s request", cache, class)
		case q.cold:
			if err := checkColdBody(q, body); err != nil {
				bad = err.Error()
			} else if w.first != nil && !bytes.Equal(body, w.first[c][i]) {
				bad = "cold body differs from round 0's body for the same simulation"
			}
			cr.bodies[i] = body
		case !bytes.Equal(body, cr.bodies[q.ref]):
			bad = fmt.Sprintf("warm body differs from the cold body of request %d", q.ref)
		}
		if bad != "" {
			cr.failures = append(cr.failures, fmt.Sprintf("request %d (%s %s seed %d): %s", i, q.protocol, q.workload, q.seed, bad))
			continue
		}
		cr.ok++
		if q.cold {
			cr.cold = append(cr.cold, ms)
		} else {
			cr.warm = append(cr.warm, ms)
		}
	}
	return cr
}

// checkColdBody checks what can be known of a response without
// re-running it: one run of the right workload, every lock acquire
// made, no mutual-exclusion violation, a non-empty simulation.
func checkColdBody(q serveReq, body []byte) error {
	var resp simd.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	var req simd.Request
	req.Normalize()
	procs := uint64(req.CMPs * req.Procs)
	want := procs * uint64(req.Acquires)
	if q.workload == "barrier" {
		want = procs * uint64(req.Barriers)
	}
	switch {
	case resp.Workload != q.workload || resp.Runs != 1:
		return fmt.Errorf("body is for workload %q with %d runs", resp.Workload, resp.Runs)
	case resp.Violations != 0:
		return fmt.Errorf("%d mutual-exclusion violations", resp.Violations)
	case resp.Acquires != want:
		return fmt.Errorf("%d lock acquires, want %d", resp.Acquires, want)
	case resp.Events == 0 || resp.RuntimeNS <= 0:
		return fmt.Errorf("empty simulation (%d events)", resp.Events)
	}
	return nil
}

// finish checks the daemon's own counters against the schedule:
// every round sends the same requests, so hits and runs are exact, and
// with disjoint keys, enough slots and a cache larger than the key
// count nothing collapses, sheds or is evicted.
func (w *serve) finish(rounds int, ph *phase, layer map[string]float64) {
	got, err := w.scrape()
	if err != nil {
		ph.fail("/metrics: %v", err)
		return
	}
	want := map[string]int{
		"simd_requests_total":      rounds * w.pred.requests,
		"simd_cache_hits_total":    rounds * w.pred.hits,
		"simd_runs_total":          rounds * w.pred.runs,
		"simd_collapsed_total":     0,
		"simd_shed_total":          0,
		"simd_cache_evicted_total": 0,
		"simd_completed_total":     rounds * w.pred.requests,
	}
	for name, v := range want {
		if got[name] != v {
			ph.fail("/metrics %s = %d, the schedule predicts %d", name, got[name], v)
		}
	}
	per := func(name string) float64 { return float64(got[name]) / float64(rounds) }
	layer["simd.requests"] = per("simd_requests_total")
	layer["simd.hits"] = per("simd_cache_hits_total")
	layer["simd.runs"] = per("simd_runs_total")
	layer["simd.collapsed"] = per("simd_collapsed_total")
	layer["simd.shed"] = per("simd_shed_total")
	layer["simd.evicted"] = per("simd_cache_evicted_total")
	layer["simd.hit_ratio"] = layer["simd.hits"] / layer["simd.requests"]

	var events, msgs, intra, inter, misses, persistent uint64
	for _, bodies := range w.first {
		for _, b := range bodies {
			var resp simd.Response
			if b == nil || json.Unmarshal(b, &resp) != nil {
				continue
			}
			events += resp.Events
			msgs += resp.IntraMsgs + resp.InterMsgs
			intra += resp.IntraBytes
			inter += resp.InterBytes
			misses += resp.Misses
			persistent += resp.Persistent
		}
	}
	layer["sim.events"] = float64(events)
	layer["network.messages"] = float64(msgs)
	layer["network.intra_bytes"] = float64(intra)
	layer["network.inter_bytes"] = float64(inter)
	layer["cache.l1_misses"] = float64(misses)
	layer["tokencmp.persistent"] = float64(persistent)
}

// scrape reads the daemon's /metrics counters.
func (w *serve) scrape() (map[string]int, error) {
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		out[f[0]] = v
	}
	return out, nil
}

// traced measures what the daemon's HTTP boundary hides: the decode
// path on the workload's own bodies, and each round-0 cold request
// replayed in the harness (machine.New, programs, RunCtx) — its
// results must equal the daemon's body, and the gap to the served
// cold latency is the serving overhead (admission, flight, encode,
// HTTP, and contention with the other client).
func (w *serve) traced(tr *tracer, base, _ *phase, layer map[string]float64) {
	layer["simd.warm_p50_ms"] = median(base.warm)
	if v, _, _, ok := windowTail(base.warm, tailWindowRounds*len(base.warm)/len(base.rounds)); ok {
		layer["simd.warm_tail_ms"] = v
	}

	var decode []float64
	for len(decode) < 4000 {
		for _, s := range w.scheds {
			for _, q := range s {
				b := q.body(0)
				t0 := time.Now()
				var req simd.Request
				dec := json.NewDecoder(bytes.NewReader(b))
				dec.DisallowUnknownFields()
				err := dec.Decode(&req)
				req.Normalize()
				if err == nil {
					err = req.Validate(false)
				}
				_ = req.Key()
				decode = append(decode, float64(time.Since(t0))/1e3)
				if err != nil {
					base.fail("decode %s: %v", b, err)
				}
			}
		}
	}
	layer["simd.decode_us"] = median(decode)

	var construct, constructBytes, generate, run, direct []float64
	var runNs, events float64
	for c, s := range w.scheds {
		for i, q := range s {
			if !q.cold {
				continue
			}
			op := fmt.Sprintf("replay/c%d/%d", c, i)
			got, t, err := replay(q, tr, op)
			if err != nil {
				base.fail("replay %s: %v", op, err)
				continue
			}
			var want simd.Response
			if err := json.Unmarshal(w.first[c][i], &want); err != nil || got != want {
				base.fail("replay %s: harness run %+v, daemon body %s", op, got, w.first[c][i])
			}
			construct = append(construct, t.construct)
			constructBytes = append(constructBytes, t.constructBytes)
			generate = append(generate, t.generate)
			run = append(run, t.run)
			direct = append(direct, t.construct+t.generate+t.run)
			runNs += t.run * 1e6
			events += float64(got.Events)
		}
	}
	layer["machine.construct_ms"] = median(construct)
	layer["machine.construct_mb"] = median(constructBytes) / 1e6
	layer["machine.run_ms"] = median(run)
	layer["workload.generate_ms"] = median(generate)
	layer["sim.host_ns_per_event"] = runNs / events
	layer["simd.cold_overhead_ms"] = median(base.cold) - median(direct)
}

// replayTimes are one replayed request's layer times, in ms.
type replayTimes struct{ construct, constructBytes, generate, run float64 }

// replay runs one cold request's simulation the way simd's runRequest
// does for a one-seed request and returns the fields of its response
// that come from the simulation.
func replay(q serveReq, tr *tracer, op string) (simd.Response, replayTimes, error) {
	var t replayTimes
	req := simd.Request{Protocol: q.protocol, Workload: q.workload, Seed: q.seed}
	req.Normalize()
	g := topo.NewGeometry(req.CMPs, req.Procs, req.Banks)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.begin("machine.New", 0, op)
	m, err := machine.New(machine.Config{Protocol: req.Protocol, Geom: g, Seed: req.Seed})
	t.construct = float64(tr.end(sp)) / 1e6
	runtime.ReadMemStats(&m1)
	t.constructBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	if err != nil {
		return simd.Response{}, t, err
	}

	sp = tr.begin("workload.Programs", 0, op)
	var progs []cpu.Program
	var mon *workload.LockMonitor
	if req.Workload == "barrier" {
		bc := workload.DefaultBarrier(g.TotalProcs(), 0)
		bc.Iterations = req.Barriers
		progs, mon = workload.BarrierPrograms(bc, req.Seed)
	} else {
		lc := workload.DefaultLocking(req.Locks)
		lc.Acquires = req.Acquires
		progs, mon = workload.LockingPrograms(lc, g.TotalProcs(), req.Seed)
	}
	t.generate = float64(tr.end(sp)) / 1e6

	sp = tr.begin("machine.RunCtx", 0, op)
	res, err := m.RunCtx(context.Background(), progs, 0)
	t.run = float64(tr.end(sp)) / 1e6
	if err != nil {
		return simd.Response{}, t, err
	}
	return simd.Response{
		Protocol:   m.Proto.Name(),
		Workload:   req.Workload,
		Runs:       1,
		RuntimeNS:  float64(res.Runtime) / float64(sim.Nanosecond),
		Events:     res.Events,
		Misses:     res.Misses,
		Persistent: res.Persistent,
		Acquires:   mon.Acquires,
		Violations: len(mon.Violations),
		IntraBytes: res.Traffic.TotalBytes(stats.IntraCMP),
		IntraMsgs:  res.Traffic.TotalMessages(stats.IntraCMP),
		InterBytes: res.Traffic.TotalBytes(stats.InterCMP),
		InterMsgs:  res.Traffic.TotalMessages(stats.InterCMP),
	}, t, nil
}
