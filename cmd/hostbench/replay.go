package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/simkit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// replayRequests is the length of the replay workload's trace.
const replayRequests = 200000

// replayActuators is the HC-SD-SA(n) design point the trace replays on.
const replayActuators = 4

// writeSPC writes the Financial-shaped synthetic trace for seed as SPC-1
// CSV (ASU,LBA,size in bytes,opcode,timestamp in seconds), the format
// of the UMass traces the paper replays.
func writeSPC(path string, seed int64) error {
	g, err := trace.NewGenerator(trace.Financial().WithRequests(replayRequests), seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for r, ok := g.Next(); ok; r, ok = g.Next() {
		op := "w"
		if r.Read {
			op = "r"
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%s\n", r.Disk, r.LBA, r.Sectors*512, op,
			strconv.FormatFloat(r.ArrivalMs/1000, 'f', 6, 64))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStream wraps the stream handed to ReplayStream: it times every
// Next and, when keep is set, keeps the requests for the kernel probes.
type timedStream struct {
	s     trace.Stream
	dur   time.Duration
	n     int64
	keep  bool
	lbas  []int64
	times []float64
}

func (t *timedStream) Next() (trace.Request, bool) {
	start := time.Now()
	r, ok := t.s.Next()
	t.dur += time.Since(start)
	t.n++
	if ok && t.keep {
		t.lbas = append(t.lbas, r.LBA)
		t.times = append(t.times, r.ArrivalMs)
	}
	return r, ok
}

// Err forwards the wrapped stream's terminal error (see trace.Err).
func (t *timedStream) Err() error { return trace.Err(t.s) }

// timedRunner wraps the sequential engine handed to the drive and to
// ReplayStream: it counts scheduled events and times each callback.
type timedRunner struct {
	eng    *simkit.Engine
	events int64
	cbDur  time.Duration
	runDur time.Duration

	// onRun runs just before the event loop starts.
	onRun func()
}

func (r *timedRunner) Now() float64 { return r.eng.Now() }

func (r *timedRunner) At(t float64, fn simkit.Event) {
	r.events++
	r.eng.At(t, r.wrap(fn))
}

func (r *timedRunner) After(d float64, fn simkit.Event) {
	r.events++
	r.eng.After(d, r.wrap(fn))
}

func (r *timedRunner) wrap(fn simkit.Event) simkit.Event {
	return func() {
		start := time.Now()
		fn()
		r.cbDur += time.Since(start)
	}
}

func (r *timedRunner) Run() {
	if r.onRun != nil {
		r.onRun()
	}
	start := time.Now()
	r.eng.Run()
	r.runDur += time.Since(start)
}

// timedDevice times Submit on the wrapped drive.
type timedDevice struct {
	device.Device
	dur time.Duration
}

func (d *timedDevice) Submit(r trace.Request, done device.Done) {
	start := time.Now()
	d.Device.Submit(r, done)
	d.dur += time.Since(start)
}

// replayPass is what one pass of the replay workload measured.
type replayPass struct {
	setups []float64 // s
	wall   time.Duration
	alloc  float64
	digest string
	snap   obs.Snapshot

	// Traced passes only.
	stream *timedStream
	runner *timedRunner
	dev    *timedDevice
	// nextInRun is the stream time spent inside event callbacks.
	nextInRun time.Duration
}

// replaySetup is what a pass builds before it replays: the trace file
// opened, sniffed and remapped onto the HC-SD layout, and HC-SD-SA(4)
// on a fresh engine. In a traced pass the stream, engine and drive are
// wrapped in timers.
type replaySetup struct {
	rd     *trace.Reader
	stream trace.Stream
	eng    *simkit.Engine
	runner simkit.Runner
	drive  *core.ParallelDrive
	dev    device.Device
}

func setupReplay(path string, p *replayPass, tr *tracer, root int, keep bool) (*replaySetup, error) {
	s := &replaySetup{}
	id := tr.begin("trace.open_file", root)
	rd, err := trace.OpenFile(path, trace.ReaderOpts{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("experiments.hcsd_offsets", root)
	offsets, err := experiments.HCSDOffsets(trace.Financial())
	tr.end(id)
	if err != nil {
		rd.Close()
		return nil, err
	}
	s.rd = rd
	s.stream = trace.RemapStream(rd, offsets)
	s.eng = simkit.New()
	s.runner = s.eng
	if tr != nil {
		p.stream = &timedStream{s: s.stream, keep: keep}
		s.stream = p.stream
		p.runner = &timedRunner{eng: s.eng}
		p.runner.onRun = func() { p.nextInRun = -p.stream.dur }
		s.runner = p.runner
	}
	id = tr.begin("core.new_sa", root)
	s.drive, err = core.NewSA(s.runner, disk.BarracudaES(), replayActuators)
	tr.end(id)
	if err != nil {
		rd.Close()
		return nil, err
	}
	s.dev = s.drive
	if tr != nil {
		p.dev = &timedDevice{Device: s.drive}
		s.dev = p.dev
	}
	return s, nil
}

// replayOnce replays the SPC file once: set up setupReps times (each
// timed, the last one kept), then stream the trace through ReplayStream
// (the timed part).
func replayOnce(path string, tr *tracer, keep bool) (*replayPass, error) {
	p := &replayPass{}
	root := tr.begin("bench.replay_pass", -1)
	defer tr.end(root)

	var s *replaySetup
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.rd.Close()
		}
		start := time.Now()
		var err error
		if s, err = setupReplay(path, p, tr, root, keep); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
	}
	defer s.rd.Close()
	eng, d := s.eng, s.drive

	mem := readMem()
	id := tr.begin("experiments.replay_stream", root)
	start := time.Now()
	resp, err := experiments.ReplayStream(s.runner, s.dev, s.stream)
	p.wall = time.Since(start)
	tr.end(id)
	p.alloc = memDelta(mem)
	if err != nil {
		return nil, fmt.Errorf("replay stream: %w", err)
	}
	if tr != nil {
		p.nextInRun += p.stream.dur
		recordReplaySpans(tr, id, p)
	}

	p.snap = d.Snapshot()
	switch {
	case resp.Count() != replayRequests:
		return nil, fmt.Errorf("%d responses for %d requests", resp.Count(), replayRequests)
	case p.snap.Submitted != p.snap.Completed || p.snap.Completed != replayRequests:
		return nil, fmt.Errorf("drive submitted %d, completed %d, want %d", p.snap.Submitted, p.snap.Completed, replayRequests)
	case eng.Pending() != 0:
		return nil, fmt.Errorf("%d events still pending", eng.Pending())
	}
	h := sha256.New()
	hashSample(h, resp)
	hashPower(h, d.Power(eng.Now()), eng.Now())
	if err := hashSnapshot(h, p.snap); err != nil {
		return nil, err
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// recordReplaySpans adds the per-event boundaries of a traced pass as
// aggregate spans below the ReplayStream call.
func recordReplaySpans(tr *tracer, call int, p *replayPass) {
	run := tr.aggregate("simkit.run", call, p.runner.runDur, 1)
	tr.aggregate("trace.next", call, p.stream.dur-p.nextInRun, 1)
	ev := tr.aggregate("core.event", run, p.runner.cbDur, p.runner.events)
	tr.aggregate("trace.next", ev, p.nextInRun, p.stream.n-1)
	tr.aggregate("core.submit", ev, p.dev.dur, replayRequests)
}

// replayKey names the replay reference digest for an input seed.
func replayKey(seed int64) string {
	return fmt.Sprintf("replay/financial-spc/n=%d/sa%d/seed=%d", replayRequests, replayActuators, seed)
}

// replayPath is where the replay workload's trace for the run's input
// seed lives.
func replayPath(b *bench) string {
	return filepath.Join(b.workdir, fmt.Sprintf("financial-n%d-seed%d.spc.csv", replayRequests, b.inSeed))
}

func prepareReplay(b *bench) error { return writeSPC(replayPath(b), b.inSeed) }

func measureReplay(b *bench) error {
	b.s.Method["input"] = fmt.Sprintf("Financial-shaped SPC-1 CSV, %d requests, replayed on HC-SD-SA(%d)", replayRequests, replayActuators)
	b.s.Method["unit_of_work"] = "one replay of the whole file; setup = open/sniff, remap and drive construction"
	probed := false
	return b.passes(func(i int, tr *tracer) error {
		b.s.Attempted++
		p, err := replayOnce(replayPath(b), tr, tr != nil && !probed)
		if err != nil {
			b.fail(1, "replay pass %d: %v", i, err)
			return nil
		}
		b.checkDigest(replayKey(b.inSeed), p.digest)
		b.s.Setups = append(b.s.Setups, p.setups...)
		if tr == nil {
			b.s.Walls = append(b.s.Walls, p.wall.Seconds())
			b.s.Allocs = append(b.s.Allocs, p.alloc)
			b.s.SimRequests = append(b.s.SimRequests, replayRequests)
			return nil
		}
		b.s.TracedWalls = append(b.s.TracedWalls, p.wall.Seconds())
		lay := &b.s.Layers
		events := float64(p.runner.events)
		self := p.runner.runDur - p.runner.cbDur
		coreDur := p.runner.cbDur - p.nextInRun
		lay.add("trace.next_s", p.stream.dur.Seconds())
		lay.add("trace.ns_per_req", float64(p.stream.dur.Nanoseconds())/replayRequests)
		lay.add("simkit.events", events)
		lay.add("simkit.self_s", self.Seconds())
		lay.add("simkit.ns_per_event", float64(self.Nanoseconds())/events)
		lay.add("core.event_s", coreDur.Seconds())
		lay.add("core.ns_per_event", float64(coreDur.Nanoseconds())/events)
		lay.add("core.submit_s", p.dev.dur.Seconds())
		addDriveGuards(lay, []obs.Snapshot{p.snap})
		if !probed {
			probed = true
			return probeKernels(lay, disk.BarracudaES(), p.stream.lbas, p.stream.times)
		}
		return nil
	})
}

// addDriveGuards records the simulated guard counts of the drives in
// members (cache hits, deepest queue, completions), which a change that
// only speeds up the host must leave identical.
func addDriveGuards(lay *layerSamples, members []obs.Snapshot) {
	var completed, hits uint64
	queueMax := 0
	for _, s := range members {
		completed += s.Completed
		hits += s.CacheHits
		if s.Queue.Max > queueMax {
			queueMax = s.Queue.Max
		}
	}
	lay.add("cache.hit_ratio", float64(hits)/float64(completed))
	lay.add("sched.queue_max", float64(queueMax))
	lay.add("core.completed", float64(completed))
}

// probeSink keeps the kernel probes' results live.
var probeSink float64

// probeKernels times the service-time kernels (Geometry.Locate,
// SeekCurve.Time, Rotation.LatencyTo, Model.ModePower) per call, on the
// replay's own LBAs and arrival times, built from the model exactly as
// core.New builds them. Each probe runs five times over its inputs and
// reports the median.
func probeKernels(lay *layerSamples, model disk.Model, lbas []int64, times []float64) error {
	g, err := geom.New(model.Geom)
	if err != nil {
		return err
	}
	curve, err := mech.NewSeekCurve(mech.SeekSpec{
		SingleCylMs:  model.SingleCylMs,
		AvgMs:        model.AvgSeekMs,
		FullStrokeMs: model.FullStrokeMs,
		MaxCyl:       model.Geom.Cylinders - 1,
	})
	if err != nil {
		return err
	}
	rot, err := mech.NewRotation(model.RPM)
	if err != nil {
		return err
	}
	pm, err := power.NewModel(model.PowerCoeff, model.PowerSpec(replayActuators))
	if err != nil {
		return err
	}
	n := len(lbas)
	if n < 2 {
		return fmt.Errorf("kernel probes need requests, got %d", n)
	}
	dists := make([]int, n)
	angles := make([]float64, n)
	prev := 0
	for i, lba := range lbas {
		loc := g.Locate(lba)
		dists[i] = loc.Cyl - prev
		if dists[i] < 0 {
			dists[i] = -dists[i]
		}
		prev = loc.Cyl
		angles[i] = loc.Angle
	}
	probe := func(name string, fn func() float64) {
		var per []float64
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			probeSink += fn()
			per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
		}
		lay.add(name, median(per))
	}
	probe("geom.locate_ns", func() float64 {
		s := 0
		for _, lba := range lbas {
			s += g.Locate(lba).Cyl
		}
		return float64(s)
	})
	probe("mech.seek_ns", func() float64 {
		s := 0.0
		for _, d := range dists {
			s += curve.Time(d)
		}
		return s
	})
	probe("mech.rotlat_ns", func() float64 {
		s := 0.0
		for i, a := range angles {
			s += rot.LatencyTo(a, times[i])
		}
		return s
	})
	probe("power.mode_ns", func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			s += pm.ModePower(power.Modes[i%len(power.Modes)], 1+i%replayActuators)
		}
		return s
	})
	return nil
}

// hashSample writes a response sample's count, moments, percentiles and
// CDF to h at full precision.
func hashSample(h io.Writer, s *stats.Sample) {
	fmt.Fprintf(h, "n=%d mean=%x max=%x sd=%x\n", s.Count(), s.Mean(), s.Max(), s.StdDev())
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
		fmt.Fprintf(h, "p%g=%x\n", p, s.Percentile(p))
	}
	for _, v := range s.ResponseCDF() {
		fmt.Fprintf(h, "%x ", v)
	}
	fmt.Fprintln(h)
}

func hashPower(h io.Writer, b power.Breakdown, elapsedMs float64) {
	fmt.Fprintf(h, "power=%x elapsed=%x\n", b.Watts, elapsedMs)
}

func hashSnapshot(h io.Writer, s obs.Snapshot) error {
	data, err := obs.MarshalSnapshot(s)
	if err != nil {
		return err
	}
	_, err = h.Write(data)
	return err
}
