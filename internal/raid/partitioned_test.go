package raid

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/trace"
)

// fakeMember is a deterministic member device built on a Scheduler (one
// LP of a partitioned engine): service time depends on the op, so the
// member timelines are irregular enough to exercise window overlap.
// ops records every request it served, on its own LP.
type fakeMember struct {
	s        simkit.Scheduler
	capacity int64
	ops      []trace.Request
}

var _ device.Device = (*fakeMember)(nil)

func (f *fakeMember) Submit(r trace.Request, done device.Done) {
	if r.End() > f.capacity {
		panic("fakeMember: out of range")
	}
	f.ops = append(f.ops, r)
	lat := 2.0 + float64(r.LBA%17)*0.25 + float64(r.Sectors)*0.05
	f.s.After(lat, func() {
		if done != nil {
			done(f.s.Now())
		}
	})
}

func (f *fakeMember) Power(elapsedMs float64) power.Breakdown {
	var b power.Breakdown
	b.Watts[power.Idle] = 5
	b.Elapsed = elapsedMs
	return b
}

func (f *fakeMember) Capacity() int64 { return f.capacity }

// partTrace builds a deterministic random stream of striped requests.
func partTrace(seed int64, n int, capacity int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, n)
	now := 0.0
	for i := range tr {
		now += rng.ExpFloat64() * 2
		tr[i] = trace.Request{
			ArrivalMs: now,
			LBA:       rng.Int63n(capacity - 600),
			Sectors:   1 + rng.Intn(512),
			Read:      rng.Intn(100) < 60,
		}
	}
	return tr
}

// buildPartitioned assembles a RAID-0 partitioned array over fake
// members and returns the engine plus the array.
func buildPartitioned(t *testing.T, members, workers int) (*par.Engine, *Partitioned) {
	t.Helper()
	const memberSectors = 1 << 20
	layout, err := NewRAID0(members, memberSectors, 128)
	if err != nil {
		t.Fatal(err)
	}
	pe, p, _ := partitionedOver(t, layout, memberSectors, workers)
	return pe, p
}

// partitionedOver assembles a partitioned array for any layout over
// fake members of the given size and returns the members too, so tests
// can inspect the ops each one served.
func partitionedOver(t *testing.T, layout Layout, memberSectors int64, workers int) (*par.Engine, *Partitioned, []*fakeMember) {
	t.Helper()
	fakes := make([]*fakeMember, layout.Members())
	pe := par.New(layout.Members()+1, par.Options{Workers: workers})
	p, err := NewPartitioned(pe, layout, bus.DefaultLink(), 512, func(s simkit.Scheduler, i int) (device.Device, error) {
		fakes[i] = &fakeMember{s: s, capacity: memberSectors}
		return fakes[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pe, p, fakes
}

// replayPartitioned submits the trace on the controller LP and returns
// per-request response times.
func replayPartitioned(pe *par.Engine, p *Partitioned, tr trace.Trace) []float64 {
	resp := make([]float64, len(tr))
	ctrl := p.Controller()
	for i, r := range tr {
		i, r := i, r
		ctrl.At(r.ArrivalMs, func() {
			p.Submit(r, func(at float64) { resp[i] = at - r.ArrivalMs })
		})
	}
	pe.Run()
	return resp
}

// TestPartitionedWorkerIdentity is the array-level determinism check:
// the same striped workload replayed with one worker and with eight
// produces bit-identical response times and byte-identical snapshots.
// Run under -race this also exercises the ownership partition of the
// link-reservation state (outBusy by the controller, retBusy by the
// members).
func TestPartitionedWorkerIdentity(t *testing.T) {
	const members = 8
	run := func(workers int) ([]float64, []byte, uint64) {
		pe, p := buildPartitioned(t, members, workers)
		tr := partTrace(41, 600, p.Capacity())
		resp := replayPartitioned(pe, p, tr)
		js, err := obs.MarshalSnapshot(p.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return resp, js, pe.Windows()
	}
	refResp, refSnap, refWin := run(1)
	gotResp, gotSnap, gotWin := run(8)

	for i := range refResp {
		if refResp[i] != gotResp[i] {
			t.Fatalf("request %d: response %g with 1 worker, %g with 8", i, refResp[i], gotResp[i])
		}
	}
	if !bytes.Equal(refSnap, gotSnap) {
		t.Fatalf("snapshots diverge:\n1 worker: %s\n8 workers: %s", refSnap, gotSnap)
	}
	if refWin != gotWin {
		t.Fatalf("window count %d with 1 worker, %d with 8", refWin, gotWin)
	}
	if refWin < 2 {
		t.Fatalf("degenerate run: %d windows", refWin)
	}
}

// TestPartitionedCompletes checks the request lifecycle bookkeeping and
// that responses include the link's round-trip floor.
func TestPartitionedCompletes(t *testing.T) {
	pe, p := buildPartitioned(t, 4, 1)
	tr := partTrace(42, 200, p.Capacity())
	resp := replayPartitioned(pe, p, tr)

	s := p.Snapshot()
	if s.Submitted != uint64(len(tr)) || s.Completed != uint64(len(tr)) {
		t.Fatalf("submitted/completed %d/%d, want %d", s.Submitted, s.Completed, len(tr))
	}
	if len(s.Children) != 0 {
		// fakeMember is not Instrumented; only instrumented members roll up.
		t.Fatalf("unexpected children %d", len(s.Children))
	}
	if s.Counters["windows"] != pe.Windows() {
		t.Fatalf("windows counter %d vs engine %d", s.Counters["windows"], pe.Windows())
	}
	floor := 2 * bus.DefaultLink().OverheadMs
	for i, r := range resp {
		if r < floor {
			t.Fatalf("request %d responded in %g ms, below the %g ms link round trip", i, r, floor)
		}
	}
}

// TestPartitionedValidation pins the constructor's error contract.
func TestPartitionedValidation(t *testing.T) {
	layout, err := NewRAID0(4, 1<<20, 128)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s simkit.Scheduler, i int) (device.Device, error) {
		return &fakeMember{s: s, capacity: 1 << 20}, nil
	}
	ok := bus.DefaultLink()

	cases := []struct {
		name string
		fn   func() (*Partitioned, error)
	}{
		{"nil layout", func() (*Partitioned, error) {
			return NewPartitioned(par.New(5, par.Options{}), nil, ok, 512, mk)
		}},
		{"bad link", func() (*Partitioned, error) {
			return NewPartitioned(par.New(5, par.Options{}), layout, bus.LinkSpec{BandwidthMBps: -1}, 512, mk)
		}},
		{"zero lookahead link", func() (*Partitioned, error) {
			return NewPartitioned(par.New(5, par.Options{}), layout, bus.LinkSpec{BandwidthMBps: 300}, 512, mk)
		}},
		{"bad sector size", func() (*Partitioned, error) {
			return NewPartitioned(par.New(5, par.Options{}), layout, ok, 0, mk)
		}},
		{"wrong LP count", func() (*Partitioned, error) {
			return NewPartitioned(par.New(4, par.Options{}), layout, ok, 512, mk)
		}},
		{"nil member", func() (*Partitioned, error) {
			return NewPartitioned(par.New(5, par.Options{}), layout, ok, 512,
				func(simkit.Scheduler, int) (device.Device, error) { return nil, nil })
		}},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Fatalf("%s: no error", c.name)
		}
	}
}
