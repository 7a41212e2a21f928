package tokencmp

import (
	"fmt"

	"tokencmp/internal/cache"
	"tokencmp/internal/mem"
	"tokencmp/internal/network"
	"tokencmp/internal/stats"
	"tokencmp/internal/token"
	"tokencmp/internal/topo"
)

// L2Stats counts per-bank protocol events.
type L2Stats struct {
	LocalRequests      uint64
	ExternalRequests   uint64
	ExternalBroadcasts uint64
	FwdToL1s           uint64
	FilteredFwds       uint64
	Writebacks         uint64
}

// presence tracks the L2 bank's view of tokens held by its CMP's L1
// caches (including L1-to-L1 transfers in flight on the on-chip
// interconnect, which the bank observes). This is what lets the policy
// stay on chip when the block is local — the "hierarchical for
// performance" half of the design.
type presence struct {
	tokens int
	owner  bool
}

// L2Ctrl is a TokenCMP shared-L2 bank controller.
type L2Ctrl struct {
	base
	cmp, bank int

	cache   *cache.Array[token.State]
	onChip  map[mem.Block]*presence
	sharers map[mem.Block]uint64 // approximate L1-sharer bits (filter variant)
	l1s     []topo.NodeID        // this CMP's L1s, the targets of external forwards

	Stats L2Stats
}

func newL2(sys *System, id topo.NodeID, cmp, bank int) *L2Ctrl {
	cfg := sys.Cfg
	c := &L2Ctrl{
		cmp:     cmp,
		bank:    bank,
		cache:   cache.New[token.State](cache.Params{SizeBytes: cfg.L2BankSize, Ways: cfg.L2Ways, BlockSize: mem.BlockSize}),
		onChip:  make(map[mem.Block]*presence),
		sharers: make(map[mem.Block]uint64),
		l1s:     sys.Geom.L1sInCMP(cmp),
	}
	c.initTables(sys, id)
	c.accessLatency = cfg.L2Latency
	c.lookup = func(b mem.Block) *token.State {
		if l := c.cache.Lookup(b); l != nil {
			return &l.State
		}
		return nil
	}
	c.onEmpty = func(b mem.Block) { c.cache.Invalidate(b) }
	return c
}

func (c *L2Ctrl) presenceOf(b mem.Block) *presence {
	p := c.onChip[b]
	if p == nil {
		p = &presence{}
		c.onChip[b] = p
	}
	return p
}

// l1Bit returns the sharer-mask bit for a local L1 endpoint.
func (c *L2Ctrl) l1Bit(id topo.NodeID) uint64 {
	g := c.sys.Geom
	idx := g.IndexOf(id)
	if g.KindOf(id) == topo.L1I {
		idx += g.ProcsPerCMP
	}
	return 1 << uint(idx)
}

// noteL1Gain records tokens arriving at a local L1 from off-chip or from
// this bank.
func (c *L2Ctrl) noteL1Gain(b mem.Block, tokens int, owner bool, l1 topo.NodeID) {
	p := c.presenceOf(b)
	p.tokens += tokens
	if owner {
		p.owner = true
	}
	if tokens > 0 {
		c.sharers[b] |= c.l1Bit(l1)
	}
}

// noteL1Loss records tokens leaving a local L1 toward this bank, another
// bank, or off-chip.
func (c *L2Ctrl) noteL1Loss(b mem.Block, tokens int, owner bool, l1 topo.NodeID, emptied bool) {
	p := c.presenceOf(b)
	p.tokens -= tokens
	if p.tokens < 0 {
		p.tokens = 0
	}
	if owner {
		p.owner = false
	}
	if emptied {
		c.sharers[b] &^= c.l1Bit(l1)
	}
	if p.tokens == 0 && !p.owner {
		delete(c.onChip, b)
	}
}

// noteL1Transfer records an L1-to-L1 transfer: on-chip totals are
// unchanged but the sharer mask moves.
func (c *L2Ctrl) noteL1Transfer(b mem.Block, from, to topo.NodeID, fromEmptied bool) {
	if fromEmptied {
		c.sharers[b] &^= c.l1Bit(from)
	}
	c.sharers[b] |= c.l1Bit(to)
}

// Closure-free deferred-handling thunks: the bank holds a pooled copy
// of the message across its tag-access delay and frees it afterwards.
func l2Local(ctx, arg any) {
	c, m := ctx.(*L2Ctrl), arg.(*network.Message)
	c.handleLocal(m)
	c.sys.Net.Free(m)
}

func l2External(ctx, arg any) {
	c, m := ctx.(*L2Ctrl), arg.(*network.Message)
	c.handleExternal(m)
	c.sys.Net.Free(m)
}

func l2Writeback(ctx, arg any) {
	c, m := ctx.(*L2Ctrl), arg.(*network.Message)
	c.handleWriteback(m)
	c.sys.Net.Free(m)
}

// Recv implements network.Endpoint.
func (c *L2Ctrl) Recv(m *network.Message) {
	switch m.Kind {
	case kTransient:
		if c.sys.Geom.CMPOf(m.Src) == c.cmp {
			c.sys.Eng.ScheduleCall(c.sys.Cfg.L2Latency, l2Local, c, c.sys.Net.CopyOf(m))
		} else {
			c.sys.Eng.ScheduleCall(c.sys.Cfg.L2Latency, l2External, c, c.sys.Net.CopyOf(m))
		}
	case kWriteback, kResponse:
		// Stray kResponse tokens routed to the bank (e.g. returned by
		// memory) merge like a writeback.
		c.sys.Eng.ScheduleCall(c.sys.Cfg.L2Latency, l2Writeback, c, c.sys.Net.CopyOf(m))
	default:
		if c.handlePersistentMsg(m) {
			return
		}
		panic(fmt.Sprintf("tokencmp: L2 %v cannot handle %s", c.id, kindName(m.Kind)))
	}
}

// respond sends tokens/data from the bank's own state to a requester,
// applying the Section 4 response rules. external selects the inter-CMP
// rules (respond to reads only as owner; include up to C tokens). It
// reports whether a response was sent and whether it carried data.
func (c *L2Ctrl) respond(m *network.Message, external bool) (responded, withData bool) {
	b := m.Block
	if c.transientBlocked(b, m.Requestor) {
		return false, false
	}
	s := c.lookup(b)
	if s == nil || s.Tokens == 0 {
		return false, false
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
		tk, own, _, data, dirty := s.TakeAll()
		resp = network.Message{Tokens: tk, Owner: own, HasData: true, Data: data, Dirty: dirty}
		emptied = true
	case s.Owner && s.Tokens >= 2:
		n := 1
		if external {
			n = minInt(c.sys.Geom.CachesPerCMP(), s.Tokens-1)
		}
		s.Tokens -= n
		resp = network.Message{Tokens: n, HasData: true, Data: s.Data}
	case s.Owner:
		tk, own, _, data, dirty := s.TakeAll()
		resp = network.Message{Tokens: tk, Owner: own, HasData: true, Data: data, Dirty: dirty}
		emptied = true
	case !external && s.Tokens >= 2 && s.HasData:
		s.Tokens--
		resp = network.Message{Tokens: 1, HasData: true, Data: s.Data}
	default:
		return false, false
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
	// Tokens sent to a local L1 stay on chip.
	g := c.sys.Geom
	if g.IsCache(resp.Dst) && g.CMPOf(resp.Dst) == c.cmp {
		c.noteL1Gain(b, resp.Tokens, resp.Owner, resp.Dst)
	}
	c.sys.Net.SendNew(resp)
	if emptied {
		c.cache.Invalidate(b)
	}
	return true, resp.HasData
}

// handleLocal serves a transient request from a local L1 and decides
// whether the request must also be broadcast off-chip (the L2-miss path
// of the hierarchical policy).
func (c *L2Ctrl) handleLocal(m *network.Message) {
	c.Stats.LocalRequests++
	b := m.Block
	rk := token.ReqKind(m.Aux)

	_, respondedWithData := c.respond(m, false)

	// External decision based on the bank's own remaining tokens plus its
	// view of tokens held by local L1s.
	var own int
	if s := c.lookup(b); s != nil {
		own = s.Tokens
	}
	p := c.onChip[b]
	onTokens, onOwner := 0, false
	if p != nil {
		onTokens, onOwner = p.tokens, p.owner
	}

	goExternal := false
	if rk == token.ReqWrite {
		goExternal = own+onTokens < c.sys.Cfg.T
	} else {
		goExternal = !respondedWithData && !onOwner
	}
	if !goExternal {
		return
	}
	c.Stats.ExternalBroadcasts++
	g := c.sys.Geom
	var dsts []topo.NodeID
	for cmp := 0; cmp < g.CMPs; cmp++ {
		if cmp == c.cmp {
			continue
		}
		dsts = append(dsts, g.L2BankFor(cmp, b))
	}
	dsts = append(dsts, g.HomeMem(b))
	tmpl := &network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kTransient,
		Class:     stats.Request,
		Aux:       m.Aux,
		Requestor: m.Requestor,
		Proc:      m.Proc,
	}
	c.sys.Net.Broadcast(tmpl, dsts)
}

// handleExternal serves a transient request arriving from another CMP:
// respond from the bank's own tokens per the external rules, then forward
// to local L1s (all of them, or — with the filter — only the approximate
// sharer set; persistent requests are never filtered).
func (c *L2Ctrl) handleExternal(m *network.Message) {
	c.Stats.ExternalRequests++
	b := m.Block
	rk := token.ReqKind(m.Aux)

	respondedAsOwner := false
	if s := c.lookup(b); rk == token.ReqRead && s != nil && s.Tokens > 0 && s.Owner {
		respondedAsOwner, _ = c.respond(m, true)
	} else if rk == token.ReqWrite {
		c.respond(m, true)
	}

	// Reads satisfied by this bank as owner need no L1 involvement.
	if respondedAsOwner {
		return
	}

	// No point disturbing the L1s when none of them holds a token (the
	// bank observes all on-chip token movement); correctness never
	// depends on this because persistent requests are never filtered.
	p := c.onChip[b]
	if p == nil || p.tokens == 0 {
		return
	}
	if token.ReqKind(m.Aux) == token.ReqRead && !p.owner {
		return // external reads are answered only by the owner
	}
	fwd := network.Message{
		Src:       c.id,
		Block:     b,
		Kind:      kFwdExternal,
		Class:     stats.Request,
		Aux:       m.Aux,
		Requestor: m.Requestor,
		Proc:      m.Proc,
	}
	if c.sys.Cfg.Variant.Filter {
		mask := c.sharers[b]
		for _, l1 := range c.l1s {
			if mask&c.l1Bit(l1) != 0 {
				fwd.Dst = l1
				c.sys.Net.SendNew(fwd)
				c.Stats.FwdToL1s++
				c.sys.ctr.fwdSent.Inc()
			} else {
				c.Stats.FilteredFwds++
			}
		}
		return
	}
	for _, l1 := range c.l1s {
		fwd.Dst = l1
		c.sys.Net.SendNew(fwd)
		c.Stats.FwdToL1s++
		c.sys.ctr.fwdSent.Inc()
	}
}

// handleWriteback merges tokens arriving from local L1 writebacks (or
// stray responses), evicting to the home memory if the set is full.
func (c *L2Ctrl) handleWriteback(m *network.Message) {
	c.Stats.Writebacks++
	c.sys.ctr.l2Writeback.Inc()
	b := m.Block
	line, victim, vstate, evicted := c.cache.Install(b)
	if evicted {
		c.writebackVictim(victim, vstate)
	}
	line.State.Merge(m.Tokens, m.Owner, m.HasData, m.Data, m.Dirty)
	c.reeval(b)
}

func (c *L2Ctrl) writebackVictim(victim mem.Block, st token.State) {
	if st.Tokens == 0 {
		return
	}
	cls := stats.WritebackControl
	hasData := st.Owner
	if hasData {
		cls = stats.WritebackData
	}
	c.sys.Net.SendNew(network.Message{
		Src:     c.id,
		Dst:     c.sys.Geom.HomeMem(victim),
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
