package raid

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/trace"
)

// Array is a storage array: a layout over a set of member devices,
// coupled by direct calls on one event loop — the zero-latency
// transport. It implements device.Device, so arrays nest (an array of
// intra-disk parallel drives is exactly the paper's §7.3 system).
type Array struct {
	controller
}

var (
	_ device.Device       = (*Array)(nil)
	_ device.Instrumented = (*Array)(nil)
)

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
	a := &Array{controller{layout: layout, members: members, failed: make([]bool, len(members))}}
	a.issue = a.issueOp
	return a, nil
}

// issueOp submits one member operation straight to its member; the
// member's completion callback is the array's.
func (a *Array) issueOp(op Op, onBack func(at float64)) {
	a.members[op.Dev].Submit(trace.Request{LBA: op.LBA, Sectors: op.Sectors, Read: op.Read}, onBack)
}

// Snapshot reports the array's request counters with every instrumented
// member rolled up as a child, in member order.
func (a *Array) Snapshot() obs.Snapshot { return a.snapshot(a.layout.Name()) }

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
