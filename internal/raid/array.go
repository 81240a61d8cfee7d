package raid

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/trace"
)

// Array is a storage array: a layout over a set of member devices.
// It implements device.Device, so arrays nest (an array of intra-disk
// parallel drives is exactly the paper's §7.3 system).
type Array struct {
	layout  Layout
	members []device.Device
	failed  []bool

	submitted     uint64
	completed     uint64
	reconstructed uint64
}

var _ device.Device = (*Array)(nil)

// NewArray binds a layout to its member devices. Every member must be at
// least as large as the layout expects; the layout's member count must
// match.
func NewArray(layout Layout, members []device.Device) (*Array, error) {
	if layout == nil {
		return nil, fmt.Errorf("raid: nil layout")
	}
	if len(members) != layout.Members() {
		return nil, fmt.Errorf("raid: %s wants %d members, got %d",
			layout.Name(), layout.Members(), len(members))
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("raid: member %d is nil", i)
		}
	}
	return &Array{layout: layout, members: members, failed: make([]bool, len(members))}, nil
}

// canFailMember is the shared FailMember precondition: the member index
// exists, is not already failed, the layout carries redundancy, and no
// other member is down (single-failure model).
func canFailMember(layout Layout, failed []bool, i int) error {
	if i < 0 || i >= len(failed) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", i, len(failed))
	}
	if failed[i] {
		return fmt.Errorf("raid: member %d already failed", i)
	}
	if _, ok := layout.(Reconstructor); !ok {
		return fmt.Errorf("raid: %s has no redundancy to survive a member failure", layout.Name())
	}
	for j, f := range failed {
		if f && j != i {
			return fmt.Errorf("raid: member %d already failed; only single failures are supported", j)
		}
	}
	return nil
}

// CanFailMember reports whether FailMember(i) would currently be
// accepted, without changing any state. fault.NewInjector calls it at
// construction time so a plan aimed at an array that cannot degrade
// (a redundancy-free layout, an out-of-range member) fails fast with a
// clear error instead of surfacing as runtime refusal counts.
func (a *Array) CanFailMember(i int) error { return canFailMember(a.layout, a.failed, i) }

// FailMember takes one member disk out of service — the degraded-array
// mode. Reads that would touch it are reconstructed from the survivors
// (the layout must implement Reconstructor); writes to it are dropped,
// with redundancy carried by the plan's surviving writes. Only layouts
// with redundancy accept failures.
func (a *Array) FailMember(i int) error {
	if err := canFailMember(a.layout, a.failed, i); err != nil {
		return err
	}
	a.failed[i] = true
	return nil
}

// RepairMember returns a failed member to service. (The simulation does
// not model the rebuild copy itself; callers can issue it as requests.)
func (a *Array) RepairMember(i int) error {
	if i < 0 || i >= len(a.members) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", i, len(a.members))
	}
	if !a.failed[i] {
		return fmt.Errorf("raid: member %d is not failed", i)
	}
	a.failed[i] = false
	return nil
}

// Degraded reports whether any member is out of service.
func (a *Array) Degraded() bool {
	for _, f := range a.failed {
		if f {
			return true
		}
	}
	return false
}

// Reconstructed reports how many reads were served by reconstruction.
func (a *Array) Reconstructed() uint64 { return a.reconstructed }

// degradedOps rewrites one phase's ops for a failure state: reads aimed
// at a failed member expand into reconstruction reads, writes aimed at
// it are dropped (redundancy flows through the plan's surviving
// writes). It returns the rewritten ops and how many reads were served
// by reconstruction. Shared by Array and Partitioned so both array
// forms degrade with byte-identical semantics.
func degradedOps(layout Layout, failed []bool, ops []Op) ([]Op, uint64, error) {
	var out []Op
	var reconstructed uint64
	for _, op := range ops {
		if !failed[op.Dev] {
			out = append(out, op)
			continue
		}
		if !op.Read {
			continue
		}
		rec, err := layout.(Reconstructor).Reconstruct(op, op.Dev)
		if err != nil {
			return nil, 0, err
		}
		reconstructed++
		out = append(out, rec...)
	}
	return out, reconstructed, nil
}

// effectiveOps rewrites one phase's ops for the current failure state.
func (a *Array) effectiveOps(ops []Op) ([]Op, error) {
	if !a.Degraded() {
		return ops, nil
	}
	out, rec, err := degradedOps(a.layout, a.failed, ops)
	if err != nil {
		return nil, err
	}
	a.reconstructed += rec
	return out, nil
}

// Layout returns the array's layout.
func (a *Array) Layout() Layout { return a.layout }

// Capacity reports the array's logical size in sectors.
func (a *Array) Capacity() int64 { return a.layout.Capacity() }

// Completed reports how many array-level requests have finished.
func (a *Array) Completed() uint64 { return a.completed }

// Submitted reports how many array-level requests have been accepted.
func (a *Array) Submitted() uint64 { return a.submitted }

// Power sums the members' average-power breakdowns — the paper's array
// power bars are exactly this roll-up.
func (a *Array) Power(elapsedMs float64) power.Breakdown {
	var b power.Breakdown
	for _, m := range a.members {
		b = b.Add(m.Power(elapsedMs))
	}
	return b
}

// Submit expands the request through the layout and issues the member
// operations, phase by phase. The request completes when the last
// operation of the last phase completes. Requests outside the array's
// logical space panic, matching the drive models' contract.
func (a *Array) Submit(r trace.Request, done device.Done) {
	plan, err := a.layout.Plan(r)
	if err != nil {
		panic(err)
	}
	a.submitted++
	a.runPhase(plan, 0, 0, done)
}

// runPhase issues one phase and chains to the next on completion.
// lastDone carries the latest member-completion time seen so far, so the
// request's completion time is correct even when a later phase's ops are
// all dropped by failure handling.
func (a *Array) runPhase(plan Plan, phase int, lastDone float64, done device.Done) {
	if phase >= len(plan.Phases) {
		a.completed++
		if done != nil {
			done(lastDone)
		}
		return
	}
	ops, err := a.effectiveOps(plan.Phases[phase])
	if err != nil {
		panic(err)
	}
	if len(ops) == 0 {
		a.runPhase(plan, phase+1, lastDone, done)
		return
	}
	outstanding := len(ops)
	for _, op := range ops {
		sub := trace.Request{
			LBA:     op.LBA,
			Sectors: op.Sectors,
			Read:    op.Read,
		}
		a.members[op.Dev].Submit(sub, func(at float64) {
			if at > lastDone {
				lastDone = at
			}
			outstanding--
			if outstanding == 0 {
				a.runPhase(plan, phase+1, lastDone, done)
			}
		})
	}
}

// Snapshot reports the array's request counters with every instrumented
// member rolled up as a child, in member order.
func (a *Array) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:     a.layout.Name(),
		Kind:       "raid",
		Submitted:  a.submitted,
		Completed:  a.completed,
		Counters:   map[string]uint64{"reconstructed": a.reconstructed},
		Gauges:     map[string]obs.GaugeValue{},
		Histograms: map[string]obs.Histogram{},
	}
	failed := uint64(0)
	for i, m := range a.members {
		if a.failed[i] {
			failed++
		}
		if in, ok := m.(device.Instrumented); ok {
			s.Children = append(s.Children, in.Snapshot())
		}
	}
	s.Counters["failed_members"] = failed
	return s
}

var _ device.Instrumented = (*Array)(nil)

// RouteByDisk is the MD system of the paper's limit study: requests carry
// the member-disk number they were traced against, and the "array" simply
// forwards each request to that disk. It implements device.Device.
type RouteByDisk struct {
	members []device.Device
}

var _ device.Device = (*RouteByDisk)(nil)

// NewRouteByDisk builds the pass-through router.
func NewRouteByDisk(members []device.Device) (*RouteByDisk, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("raid: RouteByDisk needs members")
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("raid: member %d is nil", i)
		}
	}
	return &RouteByDisk{members: members}, nil
}

// Members reports the member count.
func (rt *RouteByDisk) Members() int { return len(rt.members) }

// MemberCapacity reports the addressable size of member disk, in
// sectors.
func (rt *RouteByDisk) MemberCapacity(disk int) int64 { return rt.members[disk].Capacity() }

// Capacity reports the summed member capacity.
func (rt *RouteByDisk) Capacity() int64 {
	var total int64
	for _, m := range rt.members {
		total += m.Capacity()
	}
	return total
}

// Power sums the members' breakdowns.
func (rt *RouteByDisk) Power(elapsedMs float64) power.Breakdown {
	var b power.Breakdown
	for _, m := range rt.members {
		b = b.Add(m.Power(elapsedMs))
	}
	return b
}

// Snapshot rolls up every instrumented member as a child, in member
// order. The router adds no latency and keeps no counters of its own.
func (rt *RouteByDisk) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:     "md",
		Kind:       "route-by-disk",
		Counters:   map[string]uint64{},
		Gauges:     map[string]obs.GaugeValue{},
		Histograms: map[string]obs.Histogram{},
	}
	for _, m := range rt.members {
		if in, ok := m.(device.Instrumented); ok {
			child := in.Snapshot()
			s.Submitted += child.Submitted
			s.Completed += child.Completed
			s.Children = append(s.Children, child)
		}
	}
	return s
}

var _ device.Instrumented = (*RouteByDisk)(nil)

// Submit forwards the request to the disk it names.
func (rt *RouteByDisk) Submit(r trace.Request, done device.Done) {
	if r.Disk < 0 || r.Disk >= len(rt.members) {
		panic(fmt.Sprintf("raid: request targets disk %d of %d", r.Disk, len(rt.members)))
	}
	sub := r
	sub.Disk = 0
	rt.members[r.Disk].Submit(sub, done)
}
