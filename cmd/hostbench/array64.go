package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/workload"
)

// The array64 workload: experiments.LPRAID's healthy scenario, built
// here from the same public constructors so that construction (setup)
// and the run are timed apart and the engine's counters are readable.
const (
	array64Drives    = 64
	array64Actuators = 2
	array64Requests  = 200000
)

// array64Pass is what one pass of the array64 workload measured.
type array64Pass struct {
	setups           []float64 // s
	wall             time.Duration
	alloc            float64
	digest           string
	windows, busyLPs uint64
	fired            uint64
	snap             obs.Snapshot
}

// array64Setup is what a pass builds before it replays: the par engine,
// the RAID-0 layout with its 64 member drives, and the request stream.
type array64Setup struct {
	pe  *par.Engine
	arr *raid.Partitioned
	g   *workload.Generator
}

func setupArray64(seed int64, workers int, tr *tracer, root int) (*array64Setup, error) {
	id := tr.begin("raid.new_partitioned", root)
	defer tr.end(id)
	model := disk.BarracudaES()
	probe, err := disk.New(simkit.New(), model, disk.Options{})
	if err != nil {
		return nil, err
	}
	layout, err := raid.NewRAID0(array64Drives, probe.Capacity(), experiments.StripeUnitSectors)
	if err != nil {
		return nil, err
	}
	s := &array64Setup{pe: par.New(array64Drives+1, par.Options{Workers: workers})}
	s.arr, err = raid.NewPartitioned(s.pe, layout, bus.DefaultLink(), int64(model.Geom.SectorBytes),
		func(sch simkit.Scheduler, i int) (device.Device, error) {
			return core.New(sch, model, core.Config{
				Actuators: array64Actuators,
				Obs:       obs.Options{Name: fmt.Sprintf("lpraid/m%d", i)},
			})
		})
	if err != nil {
		return nil, err
	}
	spec := workload.Paper(workload.Light, layout.Capacity()).WithRequests(array64Requests)
	spec.MeanInterArrivalMs /= array64Drives
	s.g, err = workload.NewGenerator(spec, seed)
	return s, err
}

// array64Once builds the 64-member partitioned array on a par engine
// with workers workers setupReps times (each timed, the last one kept),
// then replays the synthetic paper workload through it (the timed part).
func array64Once(seed int64, workers int, tr *tracer) (*array64Pass, error) {
	p := &array64Pass{}
	root := tr.begin("bench.array64_pass", -1)
	defer tr.end(root)

	var s *array64Setup
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if s, err = setupArray64(seed, workers, tr, root); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
	}
	pe, arr := s.pe, s.arr
	runner := pe.Runner(0)

	mem := readMem()
	id := tr.begin("experiments.replay_stream", root)
	start := time.Now()
	resp, err := experiments.ReplayStream(runner, arr, s.g)
	p.wall = time.Since(start)
	tr.end(id)
	p.alloc = memDelta(mem)
	if err != nil {
		return nil, fmt.Errorf("replay stream: %w", err)
	}
	tr.aggregate("par.run", id, p.wall, int64(pe.Windows()))

	p.windows, p.busyLPs, p.fired = pe.Windows(), pe.BusyLPs(), pe.Fired()
	p.snap = arr.Snapshot()
	if resp.Count() != array64Requests || p.snap.Submitted != p.snap.Completed || p.snap.Completed != array64Requests {
		return nil, fmt.Errorf("%d responses, array submitted %d and completed %d, want %d",
			resp.Count(), p.snap.Submitted, p.snap.Completed, array64Requests)
	}
	elapsed := runner.Now()
	res := &experiments.LPRAIDResult{
		Drives:    array64Drives,
		Actuators: array64Actuators,
		Intensity: workload.Light,
		Windows:   p.windows,
		BusyLPs:   p.busyLPs,
		Resp:      resp,
		Power:     arr.Power(elapsed),
		ElapsedMs: elapsed,
		Snap:      &p.snap,
	}
	if p.digest, err = lpraidDigest(res); err != nil {
		return nil, err
	}
	return p, nil
}

// lpraidDigest hashes an LPRAID result: its rendered report plus every
// measured value at full precision and the array's snapshot.
func lpraidDigest(r *experiments.LPRAIDResult) (string, error) {
	var text bytes.Buffer
	experiments.WriteLPRAID(&text, r)
	h := sha256.New()
	h.Write(text.Bytes())
	hashSample(h, r.Resp)
	hashPower(h, r.Power, r.ElapsedMs)
	fmt.Fprintf(h, "windows=%d busy=%d\n", r.Windows, r.BusyLPs)
	if err := hashSnapshot(h, *r.Snap); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// array64Key names the array64 reference digest for an input seed.
func array64Key(seed int64) string {
	return fmt.Sprintf("array64/raid0-%dx%d/n=%d/seed=%d", array64Drives, array64Actuators, array64Requests, seed)
}

func measureArray64(b *bench) error {
	workers := runtime.NumCPU()
	b.s.Method["input"] = fmt.Sprintf("synthetic paper workload (60%% reads, light load x %d drives), %d requests, RAID-0 of %d x HC-SD-SA(%d)",
		array64Drives, array64Requests, array64Drives, array64Actuators)
	b.s.Method["par_workers"] = workers
	b.s.Method["unit_of_work"] = "one replay through the partitioned array; setup = engine, layout and 64 member drives"
	return b.passes(func(i int, tr *tracer) error {
		b.s.Attempted++
		p, err := array64Once(b.inSeed, workers, tr)
		if err != nil {
			b.fail(1, "array64 pass %d: %v", i, err)
			return nil
		}
		b.checkDigest(array64Key(b.inSeed), p.digest)
		b.s.Setups = append(b.s.Setups, p.setups...)
		if tr == nil {
			b.s.Walls = append(b.s.Walls, p.wall.Seconds())
			b.s.Allocs = append(b.s.Allocs, p.alloc)
			b.s.SimRequests = append(b.s.SimRequests, array64Requests)
			return nil
		}
		b.s.TracedWalls = append(b.s.TracedWalls, p.wall.Seconds())
		lay := &b.s.Layers
		lay.add("par.windows", float64(p.windows))
		lay.add("par.busy_lps_per_window", float64(p.busyLPs)/float64(p.windows))
		lay.add("par.events", float64(p.fired))
		lay.add("par.ns_per_event", float64(p.wall.Nanoseconds())/float64(p.fired))
		lay.add("par.us_per_window", float64(p.wall.Nanoseconds())/1e3/float64(p.windows))
		lay.add("raid.completed", float64(p.snap.Completed))
		addDriveGuards(lay, p.snap.Children)
		return nil
	})
}
