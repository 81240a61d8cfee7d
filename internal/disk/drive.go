package disk

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/defect"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// Options tunes a conventional drive built by New.
type Options struct {
	// Sched configures the dispatch queue. The zero value means the
	// drive's default: SPTF with a 128-request scan window and a 500 ms
	// anti-starvation age cap.
	Sched *sched.Config
	// SeekScale and RotScale multiply each request's seek time and
	// rotational latency. They implement the paper's Figure 4 limit
	// study ((1/2)S, (1/4)S, S=0, and the R variants). Zero values mean
	// 1.0; to model "free" seeks use ZeroedScale.
	SeekScale, RotScale float64
	// OnService, when non-nil, observes the mechanical components of
	// every media access (cache hits are not reported).
	OnService func(seekMs, rotMs, xferMs float64)
	// Defects, when non-nil, applies grown-defect remapping: requests
	// touching remapped sectors split into extra extents that hop to the
	// spare area, each paying its own positioning. The drive's
	// addressable space shrinks to Defects.UserSectors().
	Defects *defect.Table

	// WriteCache enables write-back caching (an extension beyond the
	// paper, which models enterprise write-through): writes are
	// acknowledged at cache latency and destaged to the media in the
	// background, yielding to foreground reads.
	WriteCache bool

	// Obs is the observability hookup: when Obs.Sink is non-nil every
	// request emits lifecycle span events to it, labeled Obs.Name
	// (default: the model name). A nil sink costs nothing.
	Obs obs.Options
}

// Config describes an intra-disk parallel drive built by NewParallel:
// a base drive model extended with extra arm assemblies and,
// optionally, the relaxed parallelism variants from the paper's
// technical report.
type Config struct {
	// Actuators is the number of independent arm assemblies (n in
	// HC-SD-SA(n)). 1 yields a conventional drive.
	Actuators int
	// Sched overrides the dispatch queue configuration (default:
	// DefaultSchedConfig, the paper's SPTF). Cost-based policies rank a
	// request by its cost on the best idle arm: SPTF by positioning
	// time, SSTF by cylinder distance, C-LOOK by circular distance.
	Sched *sched.Config
	// SeekScale and RotScale follow Options semantics (Figure 4
	// limit-study knobs). Zero means 1.0; ZeroedScale means 0.
	SeekScale, RotScale float64
	// OnService observes the mechanical components of each media access.
	OnService func(seekMs, rotMs, xferMs float64)

	// MultiArmMotion relaxes the single-arm-in-motion constraint: while
	// the channel is busy, idle arms pre-seek toward queued requests
	// (first relaxed design of the paper's §7.2; the paper found little
	// benefit). Power for overlapped motion is charged as VCM increments.
	MultiArmMotion bool
	// Channels relaxes the single-transfer-path constraint: up to this
	// many requests may be in service concurrently, each on its own arm
	// (second relaxed design). Zero means 1.
	Channels int

	// HeadsPerArm puts h heads on each arm, mounted equidistant from
	// the actuation axis at spread angular positions (the paper's
	// Figure 1(b), the H dimension of the taxonomy). All heads ride the
	// same arm, so seeks are shared; the rotational latency of an access
	// is the wait until the sector reaches the *nearest* head. Zero
	// means 1.
	HeadsPerArm int

	// IdleReturn lets an idle arm reposition toward the most recently
	// serviced cylinder once it has drifted far from the action (an
	// extension: real multi-actuator firmware parks idle heads near the
	// active band). Repositioning motion overlaps other activity, so it
	// slightly relaxes the single-arm-in-motion constraint; its energy
	// is charged as a VCM increment.
	IdleReturn bool

	// InitialCyls optionally places each arm at a starting cylinder.
	// By default every arm starts at cylinder 0 and spreads through use:
	// dispatch parks each arm where it last serviced, which keeps all
	// arms inside the workload's active region. (Spreading arms evenly
	// across the stroke strands the far arms when the footprint is
	// concentrated: a long seek always loses the dispatch cost race to
	// simply waiting out the rotation on a nearer arm.)
	InitialCyls []int

	// AngularOffsets optionally sets each arm assembly's angular
	// mounting position around the platter stack, as a fraction of a
	// revolution in [0,1). The paper's Figure 1 mounts assemblies
	// diagonally from each other; this placement is what shortens
	// rotational latency — a sector reaches the nearest arm in a
	// fraction of a revolution. The default spreads arms evenly
	// (arm i at i/n of a revolution).
	AngularOffsets []float64

	// Obs follows Options semantics; spans carry the servicing arm.
	Obs obs.Options
}

func (c Config) channels() int {
	if c.Channels <= 0 {
		return 1
	}
	return c.Channels
}

func (c Config) headsPerArm() int {
	if c.HeadsPerArm <= 0 {
		return 1
	}
	return c.HeadsPerArm
}

// Validate reports the first problem with the config, if any.
func (c Config) Validate() error {
	switch {
	case c.Actuators <= 0:
		return fmt.Errorf("disk: Actuators %d must be positive", c.Actuators)
	case c.Channels < 0:
		return fmt.Errorf("disk: Channels %d must be nonnegative", c.Channels)
	case c.HeadsPerArm < 0:
		return fmt.Errorf("disk: HeadsPerArm %d must be nonnegative", c.HeadsPerArm)
	case c.channels() > c.Actuators:
		return fmt.Errorf("disk: %d channels exceed %d actuators", c.channels(), c.Actuators)
	case c.InitialCyls != nil && len(c.InitialCyls) != c.Actuators:
		return fmt.Errorf("disk: %d initial cylinders for %d actuators",
			len(c.InitialCyls), c.Actuators)
	case c.AngularOffsets != nil && len(c.AngularOffsets) != c.Actuators:
		return fmt.Errorf("disk: %d angular offsets for %d actuators",
			len(c.AngularOffsets), c.Actuators)
	}
	for _, a := range c.AngularOffsets {
		// Written so NaN, which fails every comparison, is rejected.
		if !(a >= 0 && a < 1) {
			return fmt.Errorf("disk: angular offset %v outside [0,1)", a)
		}
	}
	return nil
}

// ZeroedScale is a scale value meaning "exactly zero" — distinguishable
// from an unset (default 1.0) scale (see device.NormalizeScale).
const ZeroedScale = device.ZeroedScale

// DefaultSchedConfig is the dispatch configuration drives use when the
// caller does not override it: the paper's SPTF policy, with a bounded
// scan window and an age cap to prevent starvation under overload.
func DefaultSchedConfig() sched.Config {
	return sched.Config{Policy: sched.SPTF, Window: 128, MaxAgeMs: 500}
}

// class is what a queued media access is for, which decides its queue
// and what its completion does.
type class uint8

const (
	foreground class = iota
	background       // SubmitBackground: dispatched only when no foreground work waits
	destage          // write-back of a cached write: background; completes no request
)

type pending struct {
	req   trace.Request
	done  device.Done
	loc   geom.Loc // physical location of the first block, cached at submit
	class class
	// fragment marks one extent of a defect-split request. It carries
	// its parent's class, and the parent completes when its last extent
	// lands.
	fragment bool

	obsReq   uint64  // span-trace request id (0 when tracing is off)
	submitMs float64 // queue-entry time, for queue-wait spans
}

type arm struct {
	cyl    int
	alpha  float64 // angular mounting position, fraction of a revolution
	failed bool
	busy   bool // servicing a request (holds a channel) or returning

	// Pre-seek assignment state (MultiArmMotion only).
	assigned   *pending
	seekDoneAt float64

	serviced uint64
}

// residualSeek is what remains at now of a pre-seek assignment's seek.
func (a *arm) residualSeek(now float64) float64 {
	if rem := a.seekDoneAt - now; rem > 0 {
		return rem
	}
	return 0
}

// Drive is a disk drive with one spindle and platter stack accessed by
// n independently positioned arm assemblies. A conventional drive (New)
// is the one-arm point of the family. In the paper's base HC-SD-SA(n)
// design only one arm may be in motion and only one head may transfer
// at a time, so service remains serialized; the benefit is that the
// dispatcher serves each request with whichever idle arm minimizes the
// policy's cost (its positioning time, under the paper's SPTF).
type Drive struct {
	model   Model
	cfg     Config
	eng     simkit.Scheduler
	k       mech.Kernel
	buf     *cache.Cache
	queue   *sched.Queue[pending]
	bgQueue *sched.Queue[pending] // background requests and write-back destages
	acct    *power.Accountant
	pm      *power.Model

	defects    *defect.Table
	writeCache bool
	kind       string // snapshot shape, "disk" or "parallel-drive", set by the constructor

	arms           []arm
	activeChannels int

	// Dispatch cost: the queue's cost function (the policy's cost on
	// the best arm listed in idle) is built once at construction so the
	// hot loop never allocates a closure. It reads costNow and idle, which
	// dispatchOne and preSeekAssign refresh before each queue scan.
	policy  sched.Policy
	costFn  func(pending) float64
	costNow float64
	idle    []int

	submitted   uint64
	completed   uint64
	bgCompleted uint64
	cacheHits   uint64
	flushes     uint64
	defectHops  uint64

	// Observability: the emitter (nil when tracing is off), the metrics
	// registry, and hot-path handles into it. qDepth tracks the
	// foreground dispatch queue per the obs.QueueStats contract;
	// bgDepth tracks the background queue.
	name    string
	em      *obs.Emitter
	reg     *obs.Registry
	qDepth  obs.Gauge
	bgDepth obs.Gauge
	hSeek   *obs.Histogram
	hRot    *obs.Histogram
	hXfer   *obs.Histogram
}

var _ device.Device = (*Drive)(nil)

// New attaches a conventional single-actuator drive built from model to
// the scheduler — the sequential engine or one logical process of the
// partitioned engine.
func New(eng simkit.Scheduler, model Model, opts Options) (*Drive, error) {
	cfg := Config{Actuators: 1, Sched: opts.Sched, SeekScale: opts.SeekScale,
		RotScale: opts.RotScale, OnService: opts.OnService, Obs: opts.Obs}
	return build(eng, model, cfg, opts.Defects, opts.WriteCache, "disk")
}

// NewParallel attaches an intra-disk parallel drive built from the base
// model to the scheduler.
func NewParallel(eng simkit.Scheduler, model Model, cfg Config) (*Drive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(eng, model, cfg, nil, false, "parallel-drive")
}

func build(eng simkit.Scheduler, model Model, cfg Config, defects *defect.Table,
	writeCache bool, kind string) (*Drive, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	k, err := model.Kernel(model.RPM, device.NormalizeScale(cfg.SeekScale),
		device.NormalizeScale(cfg.RotScale))
	if err != nil {
		return nil, err
	}
	buf, err := cache.New(model.cacheConfig())
	if err != nil {
		return nil, err
	}
	pm, err := power.NewModel(model.PowerCoeff, model.PowerSpec(cfg.Actuators))
	if err != nil {
		return nil, err
	}
	scfg := DefaultSchedConfig()
	if cfg.Sched != nil {
		scfg = *cfg.Sched
	}
	name := cfg.Obs.Label(model.Name)
	reg := obs.NewRegistry()
	d := &Drive{
		model:      model,
		cfg:        cfg,
		eng:        eng,
		k:          k,
		buf:        buf,
		queue:      sched.NewQueueSized[pending](scfg, 256),
		bgQueue:    sched.NewQueueSized[pending](scfg, 256),
		acct:       power.NewAccountant(pm),
		pm:         pm,
		defects:    defects,
		writeCache: writeCache,
		kind:       kind,
		policy:     scfg.Policy,
		arms:       make([]arm, cfg.Actuators),
		idle:       make([]int, 0, cfg.Actuators),

		name:  name,
		em:    simkit.Emitter(eng, cfg.Obs.Sink, name),
		reg:   reg,
		hSeek: reg.Histogram("seek_ms", obs.PhaseEdgesMs),
		hRot:  reg.Histogram("rot_ms", obs.PhaseEdgesMs),
		hXfer: reg.Histogram("xfer_ms", obs.PhaseEdgesMs),
	}
	for i := range d.arms {
		if cfg.InitialCyls != nil {
			c := cfg.InitialCyls[i]
			if c < 0 || c >= model.Geom.Cylinders {
				return nil, fmt.Errorf("disk: initial cylinder %d out of range", c)
			}
			d.arms[i].cyl = c
		}
		if cfg.AngularOffsets != nil {
			d.arms[i].alpha = cfg.AngularOffsets[i]
		} else {
			d.arms[i].alpha = float64(i) / float64(cfg.Actuators)
		}
	}
	d.costFn = func(p pending) float64 {
		_, c := d.bestArm(&p.loc)
		return c
	}
	return d, nil
}

// Taxonomy reports the drive's DASH taxonomy point.
func (d *Drive) Taxonomy() DASH {
	t := SA(len(d.arms))
	t.H = d.cfg.headsPerArm()
	return t
}

// Model returns the drive's static model.
func (d *Drive) Model() Model { return d.model }

// Geometry returns the drive's derived geometry.
func (d *Drive) Geometry() *geom.Geometry { return d.k.Geo }

// Capacity reports the drive's addressable size in sectors (excluding
// the spare pool when a defect table is configured).
func (d *Drive) Capacity() int64 {
	if d.defects != nil {
		return d.defects.UserSectors()
	}
	return d.k.Geo.TotalSectors()
}

// Actuators reports the configured arm-assembly count.
func (d *Drive) Actuators() int { return len(d.arms) }

// DefectHops reports how many requests needed extra extents because of
// grown-defect remapping.
func (d *Drive) DefectHops() uint64 { return d.defectHops }

// Busy reports whether the drive is servicing a request.
func (d *Drive) Busy() bool { return d.activeChannels > 0 }

// Flushes reports how many write-back destages have hit the media.
func (d *Drive) Flushes() uint64 { return d.flushes }

// BackgroundCompleted reports how many background requests finished.
func (d *Drive) BackgroundCompleted() uint64 { return d.bgCompleted }

// BackgroundPending reports the background queue length: background
// requests and write-back destages not yet on the media.
func (d *Drive) BackgroundPending() int { return d.bgQueue.Len() }

// HealthyArms reports how many arm assemblies remain in service.
func (d *Drive) HealthyArms() int {
	n := 0
	for i := range d.arms {
		if !d.arms[i].failed {
			n++
		}
	}
	return n
}

// ServicedByArm reports per-arm service counts (index = arm number).
func (d *Drive) ServicedByArm() []uint64 {
	out := make([]uint64, len(d.arms))
	for i := range d.arms {
		out[i] = d.arms[i].serviced
	}
	return out
}

// Power reports the drive's average-power breakdown over elapsed ms.
func (d *Drive) Power(elapsedMs float64) power.Breakdown {
	return d.acct.Breakdown(elapsedMs)
}

// PowerModel exposes the drive's power model (for peak-power reporting).
func (d *Drive) PowerModel() *power.Model { return d.pm }

// FailArm deconfigures one arm assembly at runtime — the §8 graceful
// degradation path (a SMART-style predicted failure takes the actuator
// out of service while the drive keeps running on the remaining arms).
// An in-flight service on the arm completes; the arm just takes no
// further work. Failing the last healthy arm is refused.
func (d *Drive) FailArm(i int) error {
	if i < 0 || i >= len(d.arms) {
		return fmt.Errorf("disk: arm %d out of range [0,%d)", i, len(d.arms))
	}
	if d.arms[i].failed {
		return fmt.Errorf("disk: arm %d already deconfigured", i)
	}
	if d.HealthyArms() == 1 {
		return fmt.Errorf("disk: refusing to deconfigure the last healthy arm")
	}
	a := &d.arms[i]
	a.failed = true
	// A pre-seek assignment is abandoned; the request goes back to the
	// queue so another arm picks it up.
	if a.assigned != nil {
		p := *a.assigned
		a.assigned = nil
		d.enqueue(p, d.eng.Now())
	}
	return nil
}

// RepairArm returns a deconfigured arm to service.
func (d *Drive) RepairArm(i int) error {
	if i < 0 || i >= len(d.arms) {
		return fmt.Errorf("disk: arm %d out of range [0,%d)", i, len(d.arms))
	}
	if !d.arms[i].failed {
		return fmt.Errorf("disk: arm %d is not deconfigured", i)
	}
	d.arms[i].failed = false
	d.trySchedule()
	return nil
}

// Submit presents a request at the current simulated time. Requests
// beyond the drive's addressable capacity panic: address validation
// belongs to the layers above, and an out-of-range block here is a
// simulator bug. With a defect table configured the addressable space
// is the user area only — the spare pool is the drive's own, and a
// request reaching into it must fail loudly rather than silently
// aliasing remapped sectors.
func (d *Drive) Submit(r trace.Request, done device.Done) { d.submit(r, done, foreground) }

// SubmitBackground presents a background-class request: it is serviced
// only when no foreground request is pending, using whatever actuator is
// free. This provides the functionality of freeblock scheduling (§5 of
// the paper) with dedicated hardware instead of rotational-gap stealing:
// background work never delays a queued foreground request, and unlike
// freeblock scheduling it is not constrained to finish within a
// foreground request's rotational latency window.
func (d *Drive) SubmitBackground(r trace.Request, done device.Done) {
	d.submit(r, done, background)
}

func (d *Drive) submit(r trace.Request, done device.Done, c class) {
	if r.End() > d.Capacity() {
		panic(fmt.Sprintf("disk: %s: request [%d,%d) beyond capacity %d",
			d.model.Name, r.LBA, r.End(), d.Capacity()))
	}
	now := d.eng.Now()
	d.submitted++
	req := d.em.NextReq()
	d.em.Submit(req, r.LBA, r.Sectors, r.Read)
	if r.Read && d.buf.Lookup(r.LBA, r.Sectors) {
		d.cacheHits++
		d.ack(req, now, c, done)
		return
	}
	if d.defects != nil {
		exts, err := d.defects.Split(r.LBA, r.Sectors)
		if err != nil {
			panic(fmt.Sprintf("disk: %s: %v", d.model.Name, err))
		}
		if len(exts) > 1 {
			// The request fragments around remapped sectors: service every
			// extent mechanically, on its parent's queue, and complete when
			// the last one lands. Each extent is cached as it completes
			// (finish); a foreground extent also counts as completed there,
			// while a background parent counts once, here.
			d.defectHops++
			outstanding := len(exts)
			var last float64
			for _, e := range exts {
				d.enqueue(pending{
					req:      trace.Request{LBA: e.LBA, Sectors: e.Sectors, Read: r.Read},
					loc:      d.k.Geo.Locate(e.LBA),
					class:    c,
					fragment: true,
					obsReq:   req,
					submitMs: now,
					done: func(at float64) {
						if at > last {
							last = at
						}
						outstanding--
						if outstanding == 0 {
							if c == background {
								d.bgCompleted++
							}
							d.em.Complete(req, -1, now)
							if done != nil {
								done(last)
							}
						}
					},
				}, now)
			}
			d.trySchedule()
			return
		}
	}
	if !r.Read && d.writeCache {
		// Write-back: acknowledge at cache latency, destage later.
		d.buf.InsertWrite(r.LBA, r.Sectors)
		d.ack(req, now, c, done)
		d.enqueue(pending{req: r, loc: d.k.Geo.Locate(r.LBA), class: destage, submitMs: now}, now)
		d.trySchedule()
		return
	}
	d.enqueue(pending{req: r, done: done, loc: d.k.Geo.Locate(r.LBA), class: c,
		obsReq: req, submitMs: now}, now)
	d.trySchedule()
}

// ack completes request req of class c at cache latency, without
// touching the media: a read served from the buffer or a write taken
// into the write-back cache.
func (d *Drive) ack(req uint64, submitMs float64, c class, done device.Done) {
	d.eng.After(d.model.CacheHitMs, func() {
		if c == background {
			d.bgCompleted++
		} else {
			d.completed++
		}
		d.em.CacheHit(req, d.model.CacheHitMs)
		d.em.Complete(req, -1, submitMs)
		if done != nil {
			done(d.eng.Now())
		}
	})
}

// enqueue pushes p onto its class's queue and records the queue's depth.
func (d *Drive) enqueue(p pending, now float64) {
	if p.class == background || p.class == destage {
		d.bgQueue.Push(p, now)
		d.bgDepth.Set(float64(d.bgQueue.Len()))
		return
	}
	d.queue.Push(p, now)
	d.qDepth.Set(float64(d.queue.Len()))
}

// posCost is the positioning time (seek + rotational latency) for the
// given arm to begin service at loc at time now.
func (d *Drive) posCost(armIdx int, loc *geom.Loc, now float64) (seekMs, rotMs float64) {
	seekMs, atTrack := d.k.Seek(d.arms[armIdx].cyl, loc.Cyl, now)
	return seekMs, d.rotWait(armIdx, loc, atTrack)
}

// rotWait is the rotational latency, from time at, until loc's sector
// reaches the given arm: the sector angle shifted by the arm's angular
// mounting position and, with several heads per arm, by each head's
// offset along the arm's head circle; the wait ends at the nearest head.
func (d *Drive) rotWait(armIdx int, loc *geom.Loc, at float64) float64 {
	base := loc.Angle - d.arms[armIdx].alpha
	rotMs := d.k.RotLatency(wrapRev(base), at)
	for h := 1; h < d.cfg.headsPerArm(); h++ {
		off := float64(h) / float64(d.cfg.headsPerArm())
		if r := d.k.RotLatency(wrapRev(base-off), at); r < rotMs {
			rotMs = r
		}
	}
	return rotMs
}

// wrapRev maps a rotation angle above -2 revolutions into [0,1).
func wrapRev(t float64) float64 {
	for t < 0 {
		t += 1
	}
	return t
}

// armCost is the dispatch policy's cost of serving loc with arm i:
// positioning time at costNow for SPTF, cylinder distance for SSTF, the
// circular elevator distance for C-LOOK. FCFS dispatches in arrival
// order (the queue ignores the cost) and, like SPTF, hands each request
// to the arm that positions soonest.
func (d *Drive) armCost(i int, loc *geom.Loc) float64 {
	switch d.policy {
	case sched.SSTF:
		dist := d.arms[i].cyl - loc.Cyl
		if dist < 0 {
			dist = -dist
		}
		return float64(dist)
	case sched.CLOOK:
		// Requests at or above the arm are served in ascending order;
		// requests below it sort after a full wrap.
		delta := float64(loc.Cyl - d.arms[i].cyl)
		if delta < 0 {
			delta += float64(d.k.Geo.Cylinders())
		}
		return delta
	default:
		seekMs, rotMs := d.posCost(i, loc, d.costNow)
		return seekMs + rotMs
	}
}

// bestArm reports the arm in d.idle with the lowest policy cost for loc
// (the first on ties), or -1 when none is idle.
func (d *Drive) bestArm(loc *geom.Loc) (armIdx int, cost float64) {
	armIdx = -1
	for _, i := range d.idle {
		if c := d.armCost(i, loc); armIdx == -1 || c < cost {
			armIdx, cost = i, c
		}
	}
	return armIdx, cost
}

// trySchedule starts as many services as free channels allow, then (in
// the multi-arm-motion variant) assigns idle arms to pre-seek.
func (d *Drive) trySchedule() {
	for d.activeChannels < d.cfg.channels() {
		if !d.dispatchOne() {
			break
		}
	}
	if d.cfg.MultiArmMotion {
		d.preSeekAssign()
	}
}

// dispatchOne starts one service if work and an arm are available.
// Foreground work comes first: the cheapest queued request on its best
// idle arm, unless an arm holding a pre-seek assignment can start
// sooner. Background work runs only when no foreground work can.
func (d *Drive) dispatchOne() bool {
	now := d.eng.Now()
	d.costNow = now
	d.idle = d.idle[:0]
	held := -1
	var heldCost float64
	for i := range d.arms {
		a := &d.arms[i]
		switch {
		case a.failed || a.busy:
		case a.assigned == nil:
			d.idle = append(d.idle, i)
		default:
			rem := a.residualSeek(now)
			if c := rem + d.rotWait(i, &a.assigned.loc, now+rem); held == -1 || c < heldCost {
				held, heldCost = i, c
			}
		}
	}

	q, depth := d.queue, &d.qDepth
	switch {
	case len(d.idle) > 0 && d.queue.Len() > 0 && (held == -1 || d.queuedBeats(heldCost, now)):
		// Peek and Pop pick the same entry (same costs, same queue), so
		// without a held assignment to beat there is no need to peek.
	case held != -1:
		a := &d.arms[held]
		p := *a.assigned
		a.assigned = nil
		d.startService(held, p, true)
		return true
	case len(d.idle) > 0 && d.bgQueue.Len() > 0:
		q, depth = d.bgQueue, &d.bgDepth
	default:
		return false
	}
	p, _ := q.Pop(now, d.costFn)
	depth.Set(float64(q.Len()))
	armIdx, _ := d.bestArm(&p.loc)
	d.startService(armIdx, p, false)
	return true
}

// queuedBeats reports whether the request a Pop would dispatch can
// begin service on its best idle arm no later than heldCost from now.
func (d *Drive) queuedBeats(heldCost, now float64) bool {
	p, _ := d.queue.Peek(now, d.costFn)
	armIdx, _ := d.bestArm(&p.loc)
	seekMs, rotMs := d.posCost(armIdx, &p.loc, now)
	return seekMs+rotMs <= heldCost
}

// startService begins media access for p on the given arm. preSeeked
// marks a request whose seek already ran during an earlier service (the
// multi-arm-motion variant).
func (d *Drive) startService(armIdx int, p pending, preSeeked bool) {
	now := d.eng.Now()
	a := &d.arms[armIdx]
	a.busy = true
	primary := d.activeChannels == 0
	d.activeChannels++

	loc := p.loc // a copy: taking p's address would move the closure's p to the heap
	var seekMs, rotMs, overhead float64
	if preSeeked {
		// Seek was overlapped; pay the residual plus rotation from there.
		seekMs = a.residualSeek(now)
		rotMs = d.rotWait(armIdx, &loc, now+seekMs)
		overhead = 0 // command overhead was paid at assignment time
	} else {
		seekMs, rotMs = d.posCost(armIdx, &loc, now)
		overhead = d.model.ControllerOverheadMs
	}
	xferMs := d.k.TransferMs(p.req.LBA, p.req.Sectors)
	serviceEnd := now + overhead + seekMs + rotMs + xferMs

	if p.class == destage {
		// Destages complete no request; they trace under their own id.
		p.obsReq = d.em.NextReq()
	}
	d.hSeek.Observe(seekMs)
	d.hRot.Observe(rotMs)
	d.hXfer.Observe(xferMs)
	d.em.Service(p.obsReq, armIdx, p.submitMs, overhead, seekMs, rotMs, xferMs)

	if primary {
		d.acct.AddSeek(seekMs, 1)
		d.acct.Add(power.RotLatency, rotMs)
		d.acct.Add(power.Transfer, xferMs)
	} else {
		// Concurrent channel: the drive's baseline power for this wall
		// time is already charged by the primary timeline; charge only
		// the incremental VCM and channel power.
		d.acct.AddSeekIncrement(seekMs)
		d.acct.AddTransferIncrement(xferMs)
	}
	if d.cfg.OnService != nil {
		d.cfg.OnService(seekMs, rotMs, xferMs)
	}
	a.cyl = p.loc.Cyl

	d.eng.At(serviceEnd, func() {
		a := &d.arms[armIdx]
		a.busy = false
		a.serviced++
		d.activeChannels--
		d.finish(armIdx, p)
		if p.done != nil {
			p.done(d.eng.Now())
		}
		if d.cfg.IdleReturn {
			d.returnIdleArms(armIdx, p.loc.Cyl)
		}
		d.trySchedule()
	})
}

// finish accounts a media access that just ended on the given arm.
func (d *Drive) finish(armIdx int, p pending) {
	switch p.class {
	case destage:
		// The data is already in the cache; nothing completes.
		d.flushes++
		d.em.Span(p.obsReq, obs.PhaseFlush, armIdx, d.eng.Now(), 0)
		return
	case background:
		if !p.fragment {
			d.bgCompleted++
		}
	default:
		d.completed++
	}
	if p.req.Read {
		d.buf.InsertRead(p.req.LBA, p.req.Sectors)
	} else {
		d.buf.InsertWrite(p.req.LBA, p.req.Sectors)
	}
	if !p.fragment {
		d.em.Complete(p.obsReq, armIdx, p.submitMs)
	}
}

// returnIdleArms repositions idle arms that have drifted far from the
// active band back toward the just-serviced cylinder. Each returning arm
// is unavailable while it moves and pays VCM energy for the trip.
func (d *Drive) returnIdleArms(servicedArm, cyl int) {
	threshold := d.model.Geom.Cylinders / 8
	for i := range d.arms {
		a := &d.arms[i]
		if i == servicedArm || a.failed || a.busy || a.assigned != nil {
			continue
		}
		dist := a.cyl - cyl
		if dist < 0 {
			dist = -dist
		}
		if dist <= threshold {
			continue
		}
		// Park a little off the target, staggered per arm, so returning
		// arms do not stack on one cylinder.
		target := cyl + (i+1)*64
		if target >= d.model.Geom.Cylinders {
			target = d.model.Geom.Cylinders - 1
		}
		seekMs, _ := d.k.Seek(a.cyl, target, d.eng.Now())
		a.busy = true
		d.acct.AddSeekIncrement(seekMs)
		d.eng.After(seekMs, func() {
			a.busy = false
			a.cyl = target
			d.trySchedule()
		})
	}
}

// preSeekAssign lets idle arms begin seeking toward queued requests
// while the channel is busy (the relaxed multi-arm-motion design).
func (d *Drive) preSeekAssign() {
	now := d.eng.Now()
	d.costNow = now
	for i := range d.arms {
		a := &d.arms[i]
		if a.failed || a.busy || a.assigned != nil {
			continue
		}
		d.idle = append(d.idle[:0], i)
		p, ok := d.queue.Pop(now, d.costFn)
		if !ok {
			return
		}
		d.qDepth.Set(float64(d.queue.Len()))
		seekMs, _ := d.posCost(i, &p.loc, now)
		a.assigned = &p
		a.seekDoneAt = now + d.model.ControllerOverheadMs + seekMs
		a.cyl = p.loc.Cyl
		// Overlapped motion: charge the VCM increment only.
		d.acct.AddSeekIncrement(seekMs)
	}
}

// DriveStats is a snapshot of a drive's counters.
type DriveStats struct {
	Taxonomy            DASH
	Completed           uint64
	BackgroundCompleted uint64
	CacheHits           uint64
	// Queue reports the foreground dispatch queue per the obs.QueueStats
	// contract: Len is its length now, Max its high-water mark after any
	// push (including failure re-queues).
	Queue         obs.QueueStats
	HealthyArms   int
	ServicedByArm []uint64
}

// Stats returns a snapshot of the drive's counters.
func (d *Drive) Stats() DriveStats {
	return DriveStats{
		Taxonomy:            d.Taxonomy(),
		Completed:           d.completed,
		BackgroundCompleted: d.bgCompleted,
		CacheHits:           d.cacheHits,
		Queue:               obs.QueueStats{Len: d.queue.Len(), Max: int(d.qDepth.Max())},
		HealthyArms:         d.HealthyArms(),
		ServicedByArm:       d.ServicedByArm(),
	}
}

// Snapshot implements device.Instrumented: the uniform stats surface,
// with the mechanical-phase histograms. A conventional drive (Kind
// "disk") adds its destage and defect-hop counters and the
// "dirty_writes" background-queue gauge (destages waiting for the media,
// plus any SubmitBackground requests); a parallel drive (Kind
// "parallel-drive") adds per-arm service counts ("armN_serviced"), the
// healthy-arm count and the "bg_queue_len" background-queue gauge.
func (d *Drive) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:              d.name,
		Kind:                d.kind,
		Submitted:           d.submitted,
		Completed:           d.completed,
		BackgroundCompleted: d.bgCompleted,
		CacheHits:           d.cacheHits,
		Queue:               obs.QueueStats{Len: d.queue.Len(), Max: int(d.qDepth.Max())},
	}
	d.reg.Fill(&s)
	bg := obs.GaugeValue{Value: d.bgDepth.Value(), Max: d.bgDepth.Max()}
	if d.kind == "disk" {
		s.Counters["flushes"] = d.flushes
		s.Counters["defect_hops"] = d.defectHops
		s.Gauges["dirty_writes"] = bg
		return s
	}
	s.Gauges["bg_queue_len"] = bg
	for i := range d.arms {
		s.Counters[fmt.Sprintf("arm%d_serviced", i)] = d.arms[i].serviced
	}
	s.Counters["healthy_arms"] = uint64(d.HealthyArms())
	return s
}

var _ device.Instrumented = (*Drive)(nil)

// Drain runs the event loop until every submitted request has
// completed. The drive's scheduler must own its event loop (the
// sequential Engine or a partitioned LP's Runner); a bare logical
// process cannot drain the simulation from inside one window.
func (d *Drive) Drain() {
	r, ok := d.eng.(interface{ Run() })
	if !ok {
		panic("disk: Drain needs a scheduler that owns the event loop")
	}
	r.Run()
}
