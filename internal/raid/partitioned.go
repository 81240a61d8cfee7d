package raid

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/trace"
)

// MemberFunc builds member i of a partitioned array on the given
// scheduler (one logical process of the partitioned engine).
type MemberFunc func(s simkit.Scheduler, i int) (device.Device, error)

// Partitioned is an array whose controller and members live on separate
// logical processes of a partitioned engine: the controller on LP 0,
// member i on LP 1+i. It shares every piece of array logic with Array —
// planning, degraded-mode rewriting, rebuild, failure state — and
// differs only in the transport: where Array couples members through
// zero-latency direct calls (and therefore must share one event loop),
// the partitioned array moves every controller↔member interaction over
// an explicit point-to-point link with real latency — the physical
// fact that also supplies the conservative lookahead letting the
// members simulate concurrently.
//
// The cost model per member operation:
//
//   - command/data outbound: the controller's link to the member is
//     FIFO-reserved (like Bus.Acquire); a write pays overhead plus the
//     payload wire time, a read command pays overhead only.
//   - completion inbound: the member's return link is FIFO-reserved;
//     a read's data pays overhead plus wire time, a write ack pays
//     overhead only.
//
// A request completes when the last member completion of its last
// phase arrives back at the controller — array response times include
// link latency, which is the honest semantics of a distributed
// controller (Array's direct-call coupling is the zero-latency limit of
// the same model).
//
// Reconstruction reads and rebuild chunks are ordinary cross-LP sends
// through the same links, so the conservative windows and the (at, src
// LP, src seq) merge order make a degraded run exactly as deterministic
// as a healthy one. All failure and rebuild state lives on the
// controller LP: Submit, fail and rebuild calls must come from
// controller-LP events (which is where replay drivers and a fault
// injector bound to Controller() run).
type Partitioned struct {
	controller

	eng         *par.Engine
	ctrl        *par.LP
	link        bus.LinkSpec
	sectorBytes int64

	// outBusy[i] is the FIFO reservation horizon of the controller→i
	// link; owned by the controller LP. retBusy[i] is the horizon of
	// the i→controller return link; owned by member i's LP. Distinct
	// elements are touched only by their owning LP, so window-parallel
	// execution never races on them.
	outBusy []float64
	retBusy []float64
}

var (
	_ device.Device       = (*Partitioned)(nil)
	_ device.Instrumented = (*Partitioned)(nil)
)

// NewPartitioned builds a partitioned array on eng: the controller on
// LP 0 and one member per further LP, built by mk on its own logical
// process. The engine must have exactly 1+layout.Members() LPs. The
// link must have positive MinLatencyMs — that latency is the declared
// lookahead of every controller↔member channel, and a zero-lookahead
// channel admits no conservative window (use Array for zero-latency
// coupling).
func NewPartitioned(eng *par.Engine, layout Layout, link bus.LinkSpec, sectorBytes int64, mk MemberFunc) (*Partitioned, error) {
	if layout == nil {
		return nil, fmt.Errorf("raid: nil layout")
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if link.MinLatencyMs() <= 0 {
		return nil, fmt.Errorf("raid: partitioned array link needs positive min latency for lookahead, got %v",
			link.MinLatencyMs())
	}
	if sectorBytes <= 0 {
		return nil, fmt.Errorf("raid: sector size %d must be positive", sectorBytes)
	}
	n := layout.Members()
	if eng.NumLPs() != n+1 {
		return nil, fmt.Errorf("raid: partitioned %s wants %d LPs (controller + %d members), engine has %d",
			layout.Name(), n+1, n, eng.NumLPs())
	}
	p := &Partitioned{
		controller:  controller{layout: layout, members: make([]device.Device, n), failed: make([]bool, n)},
		eng:         eng,
		ctrl:        eng.LP(0),
		link:        link,
		sectorBytes: sectorBytes,
		outBusy:     make([]float64, n),
		retBusy:     make([]float64, n),
	}
	p.issue = p.issueOp
	for i := 0; i < n; i++ {
		eng.Link(0, 1+i, link.MinLatencyMs())
		eng.Link(1+i, 0, link.MinLatencyMs())
		m, err := mk(eng.LP(1+i), i)
		if err != nil {
			return nil, err
		}
		if m == nil {
			return nil, fmt.Errorf("raid: member %d is nil", i)
		}
		p.members[i] = m
	}
	return p, nil
}

// Controller returns the controller's logical process — the scheduler
// replay drivers should attach to (or equivalently eng.Runner(0)).
func (p *Partitioned) Controller() *par.LP { return p.ctrl }

// issueOp moves one member operation over the links: it reserves the
// outbound link, delivers the command (and a write's payload) to the
// member's LP, submits to the member device, reserves the return link
// for the completion (and a read's data), and runs onBack in a
// controller-LP event at the completion's arrival time. Must be called
// from controller-LP context; both foreground phases and rebuild
// traffic go through it, so they share the FIFO link reservations.
func (p *Partitioned) issueOp(op Op, onBack func(back float64)) {
	sub := trace.Request{LBA: op.LBA, Sectors: op.Sectors, Read: op.Read}
	arrive := p.reserveOut(op)
	p.ctrl.Send(1+op.Dev, arrive, func() {
		p.members[op.Dev].Submit(sub, func(at float64) {
			back := p.reserveReturn(op, at)
			p.eng.LP(1+op.Dev).Send(0, back, func() { onBack(back) })
		})
	})
}

// reserveOut reserves the controller→member link for the op's outbound
// message (FIFO behind earlier reservations) and returns its arrival
// time. A write ships its payload; a read ships only the command.
func (p *Partitioned) reserveOut(op Op) float64 {
	start := p.ctrl.Now()
	if p.outBusy[op.Dev] > start {
		start = p.outBusy[op.Dev]
	}
	cost := p.link.OverheadMs
	if !op.Read {
		cost += p.link.TransferMs(int64(op.Sectors) * p.sectorBytes)
	}
	arrive := start + cost
	p.outBusy[op.Dev] = arrive
	return arrive
}

// reserveReturn reserves the member→controller link for the op's
// completion message, starting no earlier than the member-completion
// time at. A read ships its data back; a write ships only the ack.
func (p *Partitioned) reserveReturn(op Op, at float64) float64 {
	start := at
	if p.retBusy[op.Dev] > start {
		start = p.retBusy[op.Dev]
	}
	cost := p.link.OverheadMs
	if op.Read {
		cost += p.link.TransferMs(int64(op.Sectors) * p.sectorBytes)
	}
	back := start + cost
	//idplint:allow lpconfine retBusy[i] is only ever touched from member i's completion events, so the per-member elements partition the slice and no two LPs share one
	p.retBusy[op.Dev] = back
	return back
}

// Snapshot reports the array's request counters with every instrumented
// member rolled up as a child, in member order — the shape Array
// produces, plus the engine's sync-window counters.
func (p *Partitioned) Snapshot() obs.Snapshot {
	s := p.snapshot(p.layout.Name() + "-partitioned")
	s.Counters["windows"] = p.eng.Windows()
	s.Counters["busy_lps"] = p.eng.BusyLPs()
	return s
}
