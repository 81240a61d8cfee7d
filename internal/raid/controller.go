package raid

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/trace"
)

// controller is the array logic both topologies share: plan expansion
// and phase chaining, degraded-mode rewriting, the rebuild sweep, the
// failure state and the request counters. Array and Partitioned embed
// it and differ only in issue, the transport that carries one member
// operation to its member and reports its completion back. On
// Partitioned every method that changes state (Submit, FailMember,
// RepairMember, Rebuild) must run in a controller-LP event.
type controller struct {
	layout  Layout
	members []device.Device

	// failed is the failure state: the members never learn they are
	// "failed" — the controller just stops routing to them and
	// rewrites plans.
	failed []bool

	submitted     uint64
	completed     uint64
	reconstructed uint64

	// issue delivers op to members[op.Dev] and calls onBack with the
	// completion time once the completion is back on the controller's
	// timeline. Set once, at construction.
	issue func(op Op, onBack func(at float64))
}

// Layout returns the array's layout.
func (c *controller) Layout() Layout { return c.layout }

// Capacity reports the array's logical size in sectors.
func (c *controller) Capacity() int64 { return c.layout.Capacity() }

// Submitted reports how many array-level requests have been accepted.
func (c *controller) Submitted() uint64 { return c.submitted }

// Completed reports how many array-level requests have finished.
func (c *controller) Completed() uint64 { return c.completed }

// Reconstructed reports how many reads were served by reconstruction.
func (c *controller) Reconstructed() uint64 { return c.reconstructed }

// Power sums the members' average-power breakdowns — the paper's array
// power bars are exactly this roll-up.
func (c *controller) Power(elapsedMs float64) power.Breakdown {
	var b power.Breakdown
	for _, m := range c.members {
		b = b.Add(m.Power(elapsedMs))
	}
	return b
}

// CanFailMember reports whether FailMember(i) would currently be
// accepted, without changing any state: the member index exists, is
// not already failed, the layout carries redundancy, and no other
// member is down (single-failure model). fault.NewInjector calls it at
// construction time so a plan aimed at an array that cannot degrade
// fails fast with a clear error instead of surfacing as runtime
// refusal counts.
func (c *controller) CanFailMember(i int) error {
	if i < 0 || i >= len(c.failed) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", i, len(c.failed))
	}
	if c.failed[i] {
		return fmt.Errorf("raid: member %d already failed", i)
	}
	if _, ok := c.layout.(Reconstructor); !ok {
		return fmt.Errorf("raid: %s has no redundancy to survive a member failure", c.layout.Name())
	}
	for j, f := range c.failed {
		if f && j != i {
			return fmt.Errorf("raid: member %d already failed; only single failures are supported", j)
		}
	}
	return nil
}

// FailMember takes one member disk out of service — the degraded-array
// mode. Future reads that would touch it are reconstructed from the
// survivors (the layout must implement Reconstructor); future writes to
// it are dropped, with redundancy carried by the plan's surviving
// writes. Operations already in flight finish normally.
func (c *controller) FailMember(i int) error {
	if err := c.CanFailMember(i); err != nil {
		return err
	}
	c.failed[i] = true
	return nil
}

// RepairMember returns a failed member to service without copying
// anything (Rebuild does this itself when its sweep completes).
func (c *controller) RepairMember(i int) error {
	if err := c.checkFailed(i); err != nil {
		return err
	}
	c.failed[i] = false
	return nil
}

// checkFailed reports whether member i exists and is out of service.
func (c *controller) checkFailed(i int) error {
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", i, len(c.members))
	}
	if !c.failed[i] {
		return fmt.Errorf("raid: member %d is not failed", i)
	}
	return nil
}

// Degraded reports whether any member is out of service.
func (c *controller) Degraded() bool {
	for _, f := range c.failed {
		if f {
			return true
		}
	}
	return false
}

// Submit expands the request through the layout and issues the member
// operations, phase by phase. The request completes when the last
// operation of the last phase completes. Requests outside the array's
// logical space panic, matching the drive models' contract.
func (c *controller) Submit(r trace.Request, done device.Done) {
	plan, err := c.layout.Plan(r)
	if err != nil {
		panic(err)
	}
	c.submitted++
	c.runPhase(plan, 0, 0, done)
}

// runPhase issues one phase and chains to the next on completion.
// Under a member failure the phase is first rewritten: reads aimed at
// the failed member expand into reconstruction reads, writes aimed at
// it are dropped. lastDone carries the latest member-completion time
// seen so far, so the request's completion time is correct even when a
// later phase's ops are all dropped.
func (c *controller) runPhase(plan Plan, phase int, lastDone float64, done device.Done) {
	if phase >= len(plan.Phases) {
		c.completed++
		if done != nil {
			done(lastDone)
		}
		return
	}
	ops := plan.Phases[phase]
	if c.Degraded() {
		var live []Op
		for _, op := range ops {
			switch {
			case !c.failed[op.Dev]:
				live = append(live, op)
			case op.Read:
				rec, err := c.layout.(Reconstructor).Reconstruct(op, op.Dev)
				if err != nil {
					panic(err)
				}
				c.reconstructed++
				live = append(live, rec...)
			}
		}
		ops = live
	}
	if len(ops) == 0 {
		c.runPhase(plan, phase+1, lastDone, done)
		return
	}
	outstanding := len(ops)
	for _, op := range ops {
		c.issue(op, func(at float64) {
			if at > lastDone {
				lastDone = at
			}
			outstanding--
			if outstanding == 0 {
				c.runPhase(plan, phase+1, lastDone, done)
			}
		})
	}
}

// Rebuild streams a failed member's contents onto its replacement disk:
// chunk by chunk, it reads the reconstruction set from the survivors and
// writes the rebuilt data to the replaced member, keeping up to `depth`
// chunks in flight. Rebuild I/O takes the same transport as foreground
// traffic, so it queues behind (and delays) concurrent requests.
// Foreground traffic keeps flowing (and keeps being served degraded)
// while the rebuild runs; when the sweep finishes the member returns to
// service and onDone receives the copied sector count.
//
// The caller drives the simulation engine; Rebuild only issues I/O.
func (c *controller) Rebuild(dev int, chunkSectors int64, depth int, onDone func(copiedSectors int64)) error {
	if err := c.checkFailed(dev); err != nil {
		return err
	}
	if chunkSectors <= 0 {
		return fmt.Errorf("raid: chunk %d must be positive", chunkSectors)
	}
	if depth <= 0 {
		return fmt.Errorf("raid: depth %d must be positive", depth)
	}
	rec, ok := c.layout.(Reconstructor)
	if !ok {
		return fmt.Errorf("raid: %s cannot reconstruct", c.layout.Name())
	}
	extent := c.members[dev].Capacity()
	if sizer, ok := c.layout.(MemberSizer); ok {
		extent = sizer.MemberExtent()
	}

	var (
		cursor   int64
		inflight int
		copied   int64
		next     func()
	)
	finished := false
	finish := func() {
		if finished {
			return // a synchronous member completion already finished the sweep
		}
		finished = true
		c.failed[dev] = false
		if onDone != nil {
			onDone(copied)
		}
	}
	next = func() {
		for inflight < depth && cursor < extent {
			start := cursor
			n := chunkSectors
			if start+n > extent {
				n = extent - start
			}
			cursor += n
			inflight++

			ops, err := rec.Reconstruct(Op{Dev: dev, LBA: start, Sectors: int(n), Read: true}, dev)
			if err != nil {
				panic(err) // layout contract violation: a simulator bug
			}
			// Survivor reads complete: write the rebuilt chunk to the
			// replacement. issue bypasses the degraded-write drop, so the
			// write lands even though the member is still marked failed:
			// the replacement is physically present and being refilled.
			writeChunk := func() {
				c.issue(Op{Dev: dev, LBA: start, Sectors: int(n), Read: false}, func(float64) {
					copied += n
					inflight--
					if cursor < extent {
						next()
					} else if inflight == 0 {
						finish()
					}
				})
			}
			if len(ops) == 0 {
				// Nothing to read from the survivors (a layout may derive
				// the chunk without I/O): go straight to the write, or the
				// chunk would stay in flight forever and the member would
				// never return to service.
				writeChunk()
				continue
			}
			outstanding := len(ops)
			for _, op := range ops {
				c.issue(op, func(float64) {
					outstanding--
					if outstanding == 0 {
						writeChunk()
					}
				})
			}
		}
	}
	next()
	// A zero-sector extent issues no I/O at all: the sweep is trivially
	// complete, so the member returns to service and onDone fires now —
	// the issue loop alone would exit with inflight == 0 and leave the
	// member marked failed forever.
	if inflight == 0 && cursor >= extent {
		finish()
	}
	return nil
}

// snapshot reports the request counters under the given device name,
// with every instrumented member rolled up as a child, in member order.
func (c *controller) snapshot(name string) obs.Snapshot {
	s := obs.Snapshot{
		Device:     name,
		Kind:       "raid",
		Submitted:  c.submitted,
		Completed:  c.completed,
		Counters:   map[string]uint64{"reconstructed": c.reconstructed},
		Gauges:     map[string]obs.GaugeValue{},
		Histograms: map[string]obs.Histogram{},
	}
	failed := uint64(0)
	for i, m := range c.members {
		if c.failed[i] {
			failed++
		}
		if in, ok := m.(device.Instrumented); ok {
			s.Children = append(s.Children, in.Snapshot())
		}
	}
	s.Counters["failed_members"] = failed
	return s
}
