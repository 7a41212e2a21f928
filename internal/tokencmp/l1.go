package tokencmp

import (
	"fmt"
	"math/rand"
	"slices"

	"tokencmp/internal/cache"
	"tokencmp/internal/cpu"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/sim"
	"tokencmp/internal/stats"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// debugTimeout, when set (tests only), observes every transient-request
// timeout for diagnosis.
var debugTimeout func(c *L1Ctrl, b mem.Block, txn *l1Txn)

// L1Stats counts per-L1 protocol events.
type L1Stats struct {
	Hits, Misses     uint64
	TransientsSent   uint64
	Retries          uint64
	Timeouts         uint64
	PersistentReqs   uint64
	MigratoryGrants  uint64
	WritebacksIssued uint64
}

// l1Txn is an outstanding miss transaction. Each L1 serves one processor
// port, so at most one transaction is in flight per L1.
type l1Txn struct {
	kind             cpu.AccessKind
	reqKind          token.ReqKind
	store            uint64
	done             func(uint64)
	issuedAt         sim.Time
	transientsSent   int
	persistent       bool // escalation decided
	persistentIssued bool // substrate request actually broadcast
	waitingMark      bool // gated by the marking mechanism
	seq              int  // invalidates stale timeout events
}

// L1Ctrl is a TokenCMP L1 cache controller (data or instruction). It is
// both a cpu.MemPort for its processor and a substrate endpoint.
type L1Ctrl struct {
	base
	isInstr    bool
	cmp, proc  int
	globalProc int

	cache *cache.Array[token.State]
	txns  map[mem.Block]*l1Txn
	banks []*L2Ctrl // local L2 banks, for token-presence notes
	// bcast lists a transient request's destinations: this CMP's L1s,
	// then a slot each send fills with the block's home L2 bank.
	bcast []topo.NodeID
	est   *token.TimeoutEstimator
	pred  *predictor
	rng   *rand.Rand

	pend cpu.PendingAccess // access parked across the tag-access delay

	Stats L1Stats
}

// l1AttemptCall is the closure-free ScheduleCall target for the
// tag-access delay.
func l1AttemptCall(ctx, _ any) {
	c := ctx.(*L1Ctrl)
	c.attempt(c.pend.Take())
}

func newL1(sys *System, id topo.NodeID, cmp, proc int, instr bool) *L1Ctrl {
	cfg := sys.Cfg
	c := &L1Ctrl{
		isInstr:    instr,
		cmp:        cmp,
		proc:       proc,
		globalProc: sys.Geom.GlobalProc(cmp, proc),
		bcast:      append(sys.Geom.L1sInCMP(cmp), 0),
		cache:      cache.New[token.State](cache.Params{SizeBytes: cfg.L1Size, Ways: cfg.L1Ways, BlockSize: mem.BlockSize}),
		txns:       make(map[mem.Block]*l1Txn),
		est:        token.NewTimeoutEstimator(cfg.InitialTimeout),
		rng:        rand.New(rand.NewSource(cfg.Seed*1000003 + int64(id))),
	}
	c.initTables(sys, id)
	c.accessLatency = cfg.L1Latency
	c.lookup = func(b mem.Block) *token.State {
		if l := c.cache.Lookup(b); l != nil {
			return &l.State
		}
		return nil
	}
	c.onEmpty = func(b mem.Block) { c.cache.Invalidate(b) }
	c.noteLoss = c.notifyLoss
	if cfg.Variant.Predictor && !instr {
		c.pred = newPredictor(cfg.Seed*7919 + int64(id))
	}
	return c
}

// bankFor returns this CMP's L2 bank controller serving b.
func (c *L1Ctrl) bankFor(b mem.Block) *L2Ctrl {
	return c.banks[c.sys.Geom.Mapper.Bank(b)]
}

// notifyLoss keeps the L2 bank's on-chip token presence current when
// tokens leave this L1 (the bank observes all on-chip interconnect
// traffic; modeled as a zero-cost note).
func (c *L1Ctrl) notifyLoss(b mem.Block, tokens int, owner bool, dst topo.NodeID, emptied bool) {
	g := c.sys.Geom
	if g.IsCache(dst) && g.CMPOf(dst) == c.cmp && g.KindOf(dst) != topo.L2 {
		// L1 to sibling L1: tokens stay on chip.
		c.bankFor(b).noteL1Transfer(b, c.id, dst, emptied)
		return
	}
	c.bankFor(b).noteL1Loss(b, tokens, owner, c.id, emptied)
}

// Access implements cpu.MemPort.
func (c *L1Ctrl) Access(kind cpu.AccessKind, addr mem.Addr, store uint64, done func(uint64)) {
	if c.isInstr && kind != cpu.IFetch {
		panic("tokencmp: data access routed to L1I")
	}
	b := mem.BlockOf(addr)
	if _, busy := c.txns[b]; busy {
		panic(fmt.Sprintf("tokencmp: L1 %v already has outstanding transaction for %v", c.id, b))
	}
	// Tag access latency, then hit check / miss handling.
	c.pend.Park("tokencmp: L1", kind, b, store, done)
	c.sys.Eng.ScheduleCall(c.sys.Cfg.L1Latency, l1AttemptCall, c, nil)
}

func sufficient(s *token.State, kind cpu.AccessKind, t int) bool {
	if s == nil {
		return false
	}
	switch kind {
	case cpu.Load, cpu.IFetch:
		return s.CanRead()
	default:
		return s.CanWrite(t)
	}
}

func (c *L1Ctrl) attempt(kind cpu.AccessKind, b mem.Block, store uint64, done func(uint64)) {
	s := c.lookup(b)
	if sufficient(s, kind, c.sys.Cfg.T) {
		c.Stats.Hits++
		c.sys.ctr.l1Hit.Inc()
		c.cache.Touch(b)
		done(c.apply(kind, s, store))
		return
	}
	c.Stats.Misses++
	c.sys.ctr.l1Miss.Inc()
	txn := &l1Txn{kind: kind, store: store, done: done, issuedAt: c.sys.Eng.Now()}
	if kind == cpu.Load || kind == cpu.IFetch {
		txn.reqKind = token.ReqRead
	} else {
		txn.reqKind = token.ReqWrite
	}
	c.txns[b] = txn

	v := c.sys.Cfg.Variant
	switch {
	case v.MaxTransients == 0:
		c.issuePersistent(b, txn)
	case c.pred != nil && c.pred.Contended(b):
		c.issuePersistent(b, txn)
	default:
		c.sendTransient(b, txn)
	}
}

// apply performs the memory operation on a line with sufficient
// permission and returns the load/swap result. Stores and atomics start
// the response-delay hold (§3.2).
func (c *L1Ctrl) apply(kind cpu.AccessKind, s *token.State, store uint64) uint64 {
	switch kind {
	case cpu.Load, cpu.IFetch:
		return s.Data
	case cpu.Store:
		s.Data = store
		s.Dirty = true
		c.hold(s)
		return 0
	default: // Atomic swap
		old := s.Data
		s.Data = store
		s.Dirty = true
		if old != store {
			// A swap that wrote the value already present is a failed
			// test-and-set: it begins no critical section, so holding the
			// block would only slow the handoff to the next contender.
			c.hold(s)
		}
		return old
	}
}

// hold starts the response-delay window (§3.2) so a short critical
// section completes before the block can be stolen. The delay is
// bounded: consecutive stores do not extend an active hold, otherwise a
// store-heavy processor could starve remote requesters — the paper's
// "bounded delay does not affect starvation-avoidance guarantees".
func (c *L1Ctrl) hold(s *token.State) {
	now := c.sys.Eng.Now()
	if s.HoldUntil < now {
		s.HoldUntil = now + c.sys.Cfg.ResponseDelay
	}
}

func (c *L1Ctrl) sendTransient(b mem.Block, txn *l1Txn) {
	txn.transientsSent++
	c.Stats.TransientsSent++
	c.sys.ctr.reqTransient.Inc()
	if txn.transientsSent > 1 {
		c.Stats.Retries++
		c.sys.ctr.reqRetry.Inc()
	}
	tmpl := network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kTransient,
		Class:     stats.Request,
		Aux:       int(txn.reqKind),
		Requestor: c.id,
		Proc:      c.globalProc,
	}
	c.bcast[len(c.bcast)-1] = c.sys.Geom.L2BankFor(c.cmp, b)
	c.sys.Net.Broadcast(&tmpl, c.bcast)

	txn.seq++
	seq := txn.seq
	c.sys.Eng.Schedule(c.est.Timeout(), func() { c.onTimeout(b, seq) })
}

func (c *L1Ctrl) onTimeout(b mem.Block, seq int) {
	txn := c.txns[b]
	if txn == nil || txn.seq != seq || txn.persistent {
		return
	}
	c.Stats.Timeouts++
	c.sys.ctr.reqTimeout.Inc()
	if debugTimeout != nil {
		debugTimeout(c, b, txn)
	}
	if c.pred != nil {
		c.pred.NoteTimeout(b)
	}
	if txn.transientsSent < c.sys.Cfg.Variant.MaxTransients {
		// Retry with pseudo-random backoff to avoid lock-step retries.
		backoff := sim.Time(c.rng.Int63n(int64(c.est.Timeout()/4) + 1))
		txn.seq++
		seq := txn.seq
		c.sys.Eng.Schedule(backoff, func() {
			if t := c.txns[b]; t != nil && t.seq == seq && !t.persistent {
				c.sendTransient(b, t)
			}
		})
		return
	}
	c.issuePersistent(b, txn)
}

func (c *L1Ctrl) issuePersistent(b mem.Block, txn *l1Txn) {
	txn.persistent = true
	if c.sys.Cfg.Variant.Activation == Distributed {
		if c.dtable.HasMarked(b) {
			// Marking mechanism: wait until the marked wave drains.
			txn.waitingMark = true
			return
		}
		txn.waitingMark = false
		txn.persistentIssued = true
		c.Stats.PersistentReqs++
		c.sys.ctr.reqPersistent.Inc()
		c.dtable.Insert(c.globalProc, b, txn.reqKind, c.id)
		tmpl := &network.Message{
			Src:       c.id,
			Block:     b,
			Kind:      kPersistent,
			Class:     stats.Persistent,
			Aux:       int(txn.reqKind),
			Proc:      c.globalProc,
			Requestor: c.id,
		}
		c.sys.Net.Broadcast(tmpl, c.sys.allEndpoints)
		c.tryComplete(b)
		return
	}
	// Arbiter-based activation: ask the block's home memory controller.
	txn.persistentIssued = true
	c.Stats.PersistentReqs++
	c.sys.ctr.reqPersistent.Inc()
	c.sys.Net.SendNew(network.Message{
		Src:       c.id,
		Dst:       c.sys.Geom.HomeMem(b),
		Block:     b,
		Kind:      kArbRequest,
		Class:     stats.Persistent,
		Aux:       int(txn.reqKind),
		Proc:      c.globalProc,
		Requestor: c.id,
	})
}

// tryComplete finishes the outstanding transaction for b if permissions
// now suffice.
func (c *L1Ctrl) tryComplete(b mem.Block) {
	txn := c.txns[b]
	if txn == nil {
		return
	}
	s := c.lookup(b)
	if !sufficient(s, txn.kind, c.sys.Cfg.T) {
		return
	}
	delete(c.txns, b)
	txn.seq++ // kill pending timeouts
	c.cache.Touch(b)
	val := c.apply(txn.kind, s, txn.store)
	if txn.persistentIssued {
		c.deactivatePersistent(b)
	}
	txn.done(val)
}

func (c *L1Ctrl) deactivatePersistent(b mem.Block) {
	if c.sys.Cfg.Variant.Activation == Distributed {
		c.dtable.Deactivate(c.globalProc)
		c.dtable.MarkAllFor(b)
		tmpl := &network.Message{
			Src:   c.id,
			Block: b,
			Kind:  kPersistentDone,
			Class: stats.Persistent,
			Proc:  c.globalProc,
		}
		c.sys.Net.Broadcast(tmpl, c.sys.allEndpoints)
		// Direct handoff: if another persistent request is now active for
		// this block, our tokens flow to it (after the response delay).
		c.reeval(b)
		return
	}
	c.sys.Net.SendNew(network.Message{
		Src:   c.id,
		Dst:   c.sys.Geom.HomeMem(b),
		Block: b,
		Kind:  kArbDone,
		Class: stats.Persistent,
		Proc:  c.globalProc,
	})
}

// recheckMarked re-attempts persistent issue for transactions gated by
// the marking mechanism (called when deactivations arrive). Candidates
// are issued in block order: issuing sends arbiter requests, so map
// iteration order must not reach the wire (simlint: simdet).
func (c *L1Ctrl) recheckMarked() {
	var blocks []mem.Block
	for b, txn := range c.txns {
		if txn.waitingMark && !c.dtable.HasMarked(b) {
			blocks = append(blocks, b)
		}
	}
	slices.Sort(blocks)
	for _, b := range blocks {
		// Re-check under the sorted order: an earlier issue may have
		// changed the marking state.
		if txn := c.txns[b]; txn != nil && txn.waitingMark && !c.dtable.HasMarked(b) {
			c.issuePersistent(b, txn)
		}
	}
}

// l1LocalReq and l1ExtReq are the closure-free deferred-request thunks:
// the L1 holds a pooled copy of the request across its tag-access delay
// (and any response-delay hold) and frees it when handling completes.
func l1LocalReq(ctx, arg any) {
	c, m := ctx.(*L1Ctrl), arg.(*network.Message)
	if c.handleRequest(m, false) {
		c.sys.Net.Free(m)
	}
}

func l1ExtReq(ctx, arg any) {
	c, m := ctx.(*L1Ctrl), arg.(*network.Message)
	if c.handleRequest(m, true) {
		c.sys.Net.Free(m)
	}
}

// Recv implements network.Endpoint.
func (c *L1Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kTransient:
		c.sys.Eng.ScheduleCall(c.sys.Cfg.L1Latency, l1LocalReq, c, c.sys.Net.CopyOf(m))
	case kFwdExternal:
		c.sys.Eng.ScheduleCall(c.sys.Cfg.L1Latency, l1ExtReq, c, c.sys.Net.CopyOf(m))
	case kResponse:
		c.handleResponse(m)
	case kPersistentDone:
		if blk, ok := c.dtable.Deactivate(m.Proc); ok {
			c.reeval(blk)
		}
		c.recheckMarked()
		c.tryComplete(m.Block)
	default:
		if c.handlePersistentMsg(m) {
			c.tryComplete(m.Block)
			return
		}
		panic(fmt.Sprintf("tokencmp: L1 %v cannot handle %s", c.id, kindName(m.Kind)))
	}
}

// handleResponse merges arriving tokens/data, then lets the substrate
// forward them if a persistent request is active, then tries to complete
// our own transaction.
func (c *L1Ctrl) handleResponse(m *network.Message) {
	b := m.Block
	line, victim, vstate, evicted := c.cache.Install(b)
	if evicted {
		c.writebackVictim(victim, vstate)
	}
	line.State.Merge(m.Tokens, m.Owner, m.HasData, m.Data, m.Dirty)

	// On-chip presence: gains from outside the chip are noted; gains from
	// local endpoints were accounted at their send.
	g := c.sys.Geom
	if g.CMPOf(m.Src) != c.cmp || g.KindOf(m.Src) == topo.Mem {
		c.bankFor(b).noteL1Gain(b, m.Tokens, m.Owner, c.id)
	}

	// The timeout threshold tracks memory response latency only (§4) —
	// and only data-carrying responses: token-only responses skip the
	// DRAM access and would drag the threshold below the real miss
	// latency, triggering spurious retries.
	if txn := c.txns[b]; txn != nil && g.KindOf(m.Src) == topo.Mem && m.HasData {
		c.est.Observe(c.sys.Eng.Now() - txn.issuedAt)
	}

	c.reeval(b)
	c.tryComplete(b)
}

func (c *L1Ctrl) writebackVictim(victim mem.Block, st token.State) {
	if st.Tokens == 0 {
		return
	}
	c.Stats.WritebacksIssued++
	c.sys.ctr.l1Writeback.Inc()
	dst := c.sys.Geom.L2BankFor(c.cmp, victim)
	cls := stats.WritebackControl
	hasData := st.Owner
	if hasData {
		cls = stats.WritebackData
	}
	c.bankFor(victim).noteL1Loss(victim, st.Tokens, st.Owner, c.id, true)
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     dst,
		Block:   victim,
		Kind:    kWriteback,
		Class:   cls,
		Tokens:  st.Tokens,
		Owner:   st.Owner,
		HasData: hasData,
		Data:    st.Data,
		Dirty:   st.Dirty,
	})
}

// handleRequest applies the Section 4 response rules for transient
// requests: local rules for sibling-L1 requests, external rules for
// requests forwarded from other CMPs. The controller owns m (a pooled
// copy); handleRequest reports whether it is done with it — false means
// the hold re-deferral kept ownership.
func (c *L1Ctrl) handleRequest(m *network.Message, external bool) bool {
	b := m.Block
	if c.transientBlocked(b, m.Requestor) {
		return true
	}
	s := c.lookup(b)
	if s == nil || s.Tokens == 0 {
		return true
	}
	now := c.sys.Eng.Now()
	if s.HoldUntil > now {
		// Response-delay mechanism: re-handle once the hold expires,
		// keeping ownership of m across the deferral.
		fn := l1LocalReq
		if external {
			fn = l1ExtReq
		}
		c.sys.Eng.ScheduleCallAt(s.HoldUntil, fn, c, m)
		return false
	}
	rk := token.ReqKind(m.Aux)
	T := c.sys.Cfg.T

	var resp network.Message
	emptied := false
	switch {
	case rk == token.ReqWrite:
		tk, own, hasData, data, dirty := s.TakeAll()
		resp = network.Message{Tokens: tk, Owner: own, HasData: own && hasData, Data: data, Dirty: dirty}
		emptied = true
	case s.Owner && s.Tokens == T && s.Dirty && !c.sys.Cfg.DisableMigratory:
		// Migratory sharing: hand everything to the reader.
		c.Stats.MigratoryGrants++
		c.sys.ctr.migratory.Inc()
		tk, own, _, data, dirty := s.TakeAll()
		resp = network.Message{Tokens: tk, Owner: own, HasData: true, Data: data, Dirty: dirty}
		emptied = true
	case s.Owner && s.Tokens >= 2:
		n := 1
		if external {
			// Inter-CMP read responses carry up to C tokens so future
			// intra-CMP requests hit locally (§4).
			n = minInt(c.sys.Geom.CachesPerCMP(), s.Tokens-1)
		}
		s.Tokens -= n
		resp = network.Message{Tokens: n, HasData: true, Data: s.Data}
	case s.Owner:
		// Owner-only: transfer ownership with data rather than starve the
		// reader.
		tk, own, _, data, dirty := s.TakeAll()
		resp = network.Message{Tokens: tk, Owner: own, HasData: true, Data: data, Dirty: dirty}
		emptied = true
	case !external && s.Tokens >= 2 && s.HasData:
		// Local read served by a non-owner sharer with spare tokens.
		s.Tokens--
		resp = network.Message{Tokens: 1, HasData: true, Data: s.Data}
	default:
		return true // externally, non-owners stay silent on reads
	}

	resp.Src = c.id
	resp.Dst = m.Requestor
	resp.Block = b
	resp.Kind = kResponse
	if resp.HasData {
		resp.Class = stats.ResponseData
	} else {
		resp.Class = stats.InvFwdAckTokens
	}
	c.notifyLoss(b, resp.Tokens, resp.Owner, resp.Dst, emptied)
	c.sys.Net.SendNew(resp)
	if emptied {
		c.cache.Invalidate(b)
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
