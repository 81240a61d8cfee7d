package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// paperRequests is the replay length of every paper simulation: the
// `idpbench -requests` the workload reproduces.
const paperRequests = 2000

// paperPass runs every section of `idpbench -exp all` once and records
// what each experiments call and fleet job cost.
type paperPass struct {
	cfg  experiments.Config
	tr   *tracer
	root int
	out  bytes.Buffer

	mu        sync.Mutex
	calls     int                // experiments calls made
	kinds     map[string]float64 // per experiments entry point, s
	jobs      []float64          // each fleet job the benchmark submits, s
	fleetWall time.Duration      // inside fleet.Run
	simReq    uint64             // Σ Completed over every returned run
	bad       []string           // invariant violations
}

// call times one experiments call made under parent and checks that
// every run it returns completed all its requests.
func (p *paperPass) call(kind string, parent int, fn func() ([]experiments.Run, error)) error {
	id := p.tr.begin("experiments."+kind, parent)
	start := time.Now()
	runs, err := fn()
	d := time.Since(start)
	p.tr.end(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	p.kinds[kind] += d.Seconds()
	for _, r := range runs {
		p.simReq += r.Completed
		if r.Completed != uint64(p.cfg.Requests) {
			p.bad = append(p.bad, fmt.Sprintf("%s %s: %d of %d requests completed", kind, r.Label, r.Completed, p.cfg.Requests))
		}
	}
	return err
}

// perWorkload renders one section per Table-2 workload as fleet jobs
// and appends their outputs in workload order, as idpbench does.
func (p *paperPass) perWorkload(name string, workloads []trace.WorkloadSpec,
	render func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error) error {
	run := p.tr.begin("fleet.run/"+name, p.root)
	jobs := make([]fleet.Job[string], len(workloads))
	for i, w := range workloads {
		w := w
		jobs[i] = fleet.Job[string]{
			Name: name + "/" + w.Name,
			Run: func(context.Context, int64) (string, error) {
				id := p.tr.begin("fleet.job/"+name+"/"+w.Name, run)
				start := time.Now()
				var buf bytes.Buffer
				err := render(w, id, &buf)
				d := time.Since(start)
				p.tr.end(id)
				p.mu.Lock()
				p.jobs = append(p.jobs, d.Seconds())
				p.mu.Unlock()
				return buf.String(), err
			},
		}
	}
	start := time.Now()
	texts, err := fleet.Run(jobs, fleet.Options{Parallelism: p.cfg.Parallelism, BaseSeed: p.cfg.Seed})
	p.fleetWall += time.Since(start)
	p.tr.end(run)
	if err != nil {
		return err
	}
	for _, s := range texts {
		p.out.WriteString(s)
	}
	return nil
}

// setup is the pass's pre-fleet work: the config, the workload list and
// Table 1.
func (p *paperPass) setup(seed int64) ([]trace.WorkloadSpec, error) {
	p.out.Reset()
	p.cfg = experiments.Config{Requests: paperRequests, Seed: seed, Parallelism: runtime.NumCPU()}
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	workloads := trace.Workloads()
	for _, w := range workloads {
		if err := w.WithRequests(p.cfg.Requests).Validate(); err != nil {
			return nil, err
		}
	}
	experiments.WriteTable1(&p.out)
	fmt.Fprintln(&p.out)
	return workloads, nil
}

// sections runs the rest of `idpbench -exp all` in its order, rendering
// the same bytes it prints.
func (p *paperPass) sections(workloads []trace.WorkloadSpec) error {
	cfg := p.cfg
	err := p.perWorkload("fig2+3", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		var ls *experiments.LimitStudyResult
		err := p.call("limitstudy", job, func() (runs []experiments.Run, err error) {
			if ls, err = experiments.LimitStudy(w, cfg); err != nil {
				return nil, err
			}
			return []experiments.Run{ls.MD, ls.HCSD}, nil
		})
		if err != nil {
			return err
		}
		experiments.WriteCDFTable(buf, fmt.Sprintf("Figure 2 (%s): response-time CDF, MD vs HC-SD", w.Name),
			[]experiments.Run{ls.MD, ls.HCSD})
		fmt.Fprintln(buf)
		experiments.WritePowerTable(buf, fmt.Sprintf("Figure 3 (%s): average power, MD vs HC-SD", w.Name),
			[]experiments.Run{ls.MD, ls.HCSD})
		fmt.Fprintln(buf)
		return nil
	})
	if err != nil {
		return err
	}

	err = p.perWorkload("fig4", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		var ls *experiments.LimitStudyResult
		var bn *experiments.BottleneckResult
		err := p.call("limitstudy", job, func() (runs []experiments.Run, err error) {
			if ls, err = experiments.LimitStudy(w, cfg); err != nil {
				return nil, err
			}
			return []experiments.Run{ls.MD, ls.HCSD}, nil
		})
		if err != nil {
			return err
		}
		err = p.call("bottleneck", job, func() (runs []experiments.Run, err error) {
			if bn, err = experiments.Bottleneck(w, cfg); err != nil {
				return nil, err
			}
			return bn.Cases, nil
		})
		if err != nil {
			return err
		}
		runs := append([]experiments.Run{ls.HCSD}, bn.Cases...)
		runs = append(runs, ls.MD)
		experiments.WriteCDFTable(buf, fmt.Sprintf("Figure 4 (%s): bottleneck analysis of HC-SD", w.Name), runs)
		fmt.Fprintln(buf)
		return nil
	})
	if err != nil {
		return err
	}

	err = p.perWorkload("fig5", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		var ma *experiments.MultiActuatorResult
		err := p.call("multiactuator", job, func() (runs []experiments.Run, err error) {
			if ma, err = experiments.MultiActuator(w, cfg, 4); err != nil {
				return nil, err
			}
			return append(append(runs, ma.Runs...), ma.MD), nil
		})
		if err != nil {
			return err
		}
		runs := append(append([]experiments.Run{}, ma.Runs...), ma.MD)
		experiments.WriteCDFTable(buf, fmt.Sprintf("Figure 5 (%s): response-time CDF, HC-SD-SA(n)", w.Name), runs)
		experiments.WritePDFTable(buf, fmt.Sprintf("Figure 5 (%s): rotational-latency PDF", w.Name), ma.Runs)
		fmt.Fprintln(buf)
		return nil
	})
	if err != nil {
		return err
	}

	err = p.perWorkload("fig6+7", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		var rr *experiments.ReducedRPMResult
		err := p.call("reducedrpm", job, func() (runs []experiments.Run, err error) {
			if rr, err = experiments.ReducedRPM(w, cfg); err != nil {
				return nil, err
			}
			return append([]experiments.Run{rr.HCSD, rr.MD}, rr.Runs...), nil
		})
		if err != nil {
			return err
		}
		experiments.WritePowerTable(buf, fmt.Sprintf("Figure 6 (%s): average power of reduced-RPM designs", w.Name),
			append([]experiments.Run{rr.HCSD}, rr.Runs...))
		fmt.Fprintln(buf)
		experiments.WriteCDFTable(buf, fmt.Sprintf("Figure 7 (%s): reduced-RPM designs vs MD", w.Name),
			append(append([]experiments.Run{}, rr.Runs...), rr.MD))
		fmt.Fprintln(buf)
		return nil
	})
	if err != nil {
		return err
	}

	var rs *experiments.RAIDStudyResult
	err = p.call("raidstudy", p.root, func() (runs []experiments.Run, err error) {
		rs, err = experiments.RAIDStudy(cfg)
		return nil, err
	})
	if err != nil {
		return err
	}
	experiments.WriteRAIDStudy(&p.out, rs)
	fmt.Fprintln(&p.out)

	for _, opts := range []experiments.LPRAIDOpts{{}, {Degraded: true}} {
		var lr *experiments.LPRAIDResult
		err := p.call("lpraid", p.root, func() (runs []experiments.Run, err error) {
			if lr, err = experiments.LPRAID(cfg, opts); err != nil {
				return nil, err
			}
			return []experiments.Run{{Label: "lpraid", Completed: uint64(lr.Resp.Count())}}, nil
		})
		if err != nil {
			return err
		}
		experiments.WriteLPRAID(&p.out, lr)
		fmt.Fprintln(&p.out)
	}

	err = p.perWorkload("degradation", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		var dr *experiments.DegradationResult
		err := p.call("degradation", job, func() (runs []experiments.Run, err error) {
			if dr, err = experiments.DegradationStudy(w, cfg); err != nil {
				return nil, err
			}
			for _, r := range dr.Runs {
				runs = append(runs, r.Run)
			}
			return runs, nil
		})
		if err != nil {
			return err
		}
		experiments.WriteDegradationTable(buf, dr)
		fmt.Fprintln(buf)
		return nil
	})
	if err != nil {
		return err
	}

	err = p.perWorkload("ablations", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		var sr, cr, rr []experiments.Run
		var spread, colocated experiments.Run
		err := p.call("ablations", job, func() (runs []experiments.Run, err error) {
			sr, err = experiments.SchedulerAblation(w, cfg)
			return sr, err
		})
		if err != nil {
			return err
		}
		experiments.WriteSummaryTable(buf, fmt.Sprintf("Ablation (%s): disk scheduler on HC-SD", w.Name), sr)
		err = p.call("ablations", job, func() (runs []experiments.Run, err error) {
			cr, err = experiments.CacheAblation(w, cfg)
			return cr, err
		})
		if err != nil {
			return err
		}
		experiments.WriteSummaryTable(buf, fmt.Sprintf("Ablation (%s): HC-SD cache size", w.Name), cr)
		err = p.call("ablations", job, func() (runs []experiments.Run, err error) {
			rr, err = experiments.RelaxedDesignAblation(w, cfg, 2)
			return rr, err
		})
		if err != nil {
			return err
		}
		experiments.WriteSummaryTable(buf, fmt.Sprintf("Ablation (%s): relaxed parallel designs", w.Name), rr)
		err = p.call("ablations", job, func() (runs []experiments.Run, err error) {
			spread, colocated, err = experiments.PlacementAblation(w, cfg, 4)
			return []experiments.Run{spread, colocated}, err
		})
		if err != nil {
			return err
		}
		experiments.WriteSummaryTable(buf,
			fmt.Sprintf("Ablation (%s): angular arm placement (rot mean %.2f vs %.2f ms)",
				w.Name, spread.RotLat.Mean(), colocated.RotLat.Mean()),
			[]experiments.Run{spread, colocated})
		fmt.Fprintln(buf)
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(&p.out, "Workload calibration: synthesized trace statistics (Table 2 shapes)")
	err = p.perWorkload("workloads", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		id := p.tr.begin("trace.generate", job)
		tr, err := trace.Generate(w.WithRequests(cfg.Requests), cfg.Seed)
		p.tr.end(id)
		if err != nil {
			return err
		}
		trace.WriteStats(buf, w.Name, trace.Analyze(tr))
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(&p.out)

	err = p.perWorkload("altpower", workloads, func(w trace.WorkloadSpec, job int, buf *bytes.Buffer) error {
		var ap *experiments.AltPowerResult
		err := p.call("altpower", job, func() (runs []experiments.Run, err error) {
			if ap, err = experiments.AltPower(w, cfg); err != nil {
				return nil, err
			}
			return []experiments.Run{ap.HCSD, ap.DRPM, ap.SA4Low}, nil
		})
		if err != nil {
			return err
		}
		experiments.WriteSummaryTable(buf,
			fmt.Sprintf("Alternative power knobs (%s): DRPM vs reduced-RPM intra-disk parallelism", w.Name),
			[]experiments.Run{ap.HCSD, ap.DRPM, ap.SA4Low})
		fmt.Fprintln(buf)
		return nil
	})
	if err != nil {
		return err
	}
	return p.costTables()
}

// costTables renders Table 9a and Figure 9b.
func (p *paperPass) costTables() error {
	out := &p.out
	fmt.Fprintln(out, "Table 9a: estimated component and drive material costs (USD)")
	prices := cost.UnitPrices()
	fmt.Fprintf(out, "%-18s %12s\n", "component", "unit price")
	for _, c := range cost.Components() {
		pr := prices[c]
		fmt.Fprintf(out, "%-18s %5.2f-%5.2f\n", c, pr.Low, pr.High)
	}
	for _, a := range []int{1, 2, 4} {
		r, err := cost.DriveCost(4, a)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d-actuator drive: %.1f-%.1f\n", a, r.Low, r.High)
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "Figure 9b: iso-performance cost comparison")
	costs, err := cost.IsoPerformanceCosts()
	if err != nil {
		return err
	}
	base := costs[0].Mid()
	for i, c := range cost.IsoPerformanceConfigs() {
		r := costs[i]
		fmt.Fprintf(out, "  %-28s %.1f-%.1f (mid %.1f, %+.0f%% vs conventional)\n",
			c.Label, r.Low, r.High, r.Mid(), 100*(r.Mid()-base)/base)
	}
	fmt.Fprintln(out)
	return nil
}

// paperResult is what one pass measured.
type paperResult struct {
	setups []float64 // s
	wall   time.Duration
	alloc  float64
	digest string
	pass   *paperPass
}

// paperOnce runs one pass: the pre-fleet set-up setupReps times
// (each timed), then every section.
func paperOnce(seed int64, tr *tracer) (*paperResult, error) {
	p := &paperPass{tr: tr, kinds: map[string]float64{}}
	p.root = tr.begin("bench.paper_pass", -1)
	defer tr.end(p.root)
	res := &paperResult{pass: p}
	var workloads []trace.WorkloadSpec
	for i := 0; i < setupReps; i++ {
		id := tr.begin("bench.setup", p.root)
		start := time.Now()
		var err error
		workloads, err = p.setup(seed)
		res.setups = append(res.setups, time.Since(start).Seconds())
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	mem := readMem()
	start := time.Now()
	if err := p.sections(workloads); err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	res.alloc = memDelta(mem)
	sum := sha256.Sum256(p.out.Bytes())
	res.digest = hex.EncodeToString(sum[:])
	return res, nil
}

// paperKey names the paper reference digest for an input seed.
func paperKey(seed int64) string {
	return fmt.Sprintf("paper/exp-all/n=%d/seed=%d", paperRequests, seed)
}

func measurePaper(b *bench) error {
	b.s.Method["input"] = fmt.Sprintf("idpbench -exp all -requests %d, fleet parallelism %d, sequential engine", paperRequests, runtime.NumCPU())
	b.s.Method["unit_of_work"] = "one pass over every section; setup = config, workload specs and Table 1"
	return b.passes(func(i int, tr *tracer) error {
		r, err := paperOnce(b.inSeed, tr)
		if err != nil {
			b.s.Attempted++
			b.fail(1, "paper pass %d: %v", i, err)
			return nil
		}
		p := r.pass
		b.s.Attempted += p.calls
		if len(p.bad) > 0 {
			b.fail(len(p.bad), "paper pass %d: %v", i, p.bad)
		}
		if !b.checkDigest(paperKey(b.inSeed), r.digest) {
			b.s.Failed += p.calls - 1 // the pass's output as a whole is wrong
		}
		b.s.Setups = append(b.s.Setups, r.setups...)
		if tr == nil {
			b.s.Walls = append(b.s.Walls, r.wall.Seconds())
			b.s.Allocs = append(b.s.Allocs, r.alloc)
			b.s.SimRequests = append(b.s.SimRequests, float64(p.simReq))
			return nil
		}
		b.s.TracedWalls = append(b.s.TracedWalls, r.wall.Seconds())
		lay := &b.s.Layers
		for kind, s := range p.kinds {
			lay.add("experiments."+kind+"_s", s)
		}
		lay.add("experiments.sim_requests", float64(p.simReq))
		lay.add("fleet.jobs", float64(len(p.jobs)))
		busy, longest := 0.0, 0.0
		for _, d := range p.jobs {
			busy += d
			longest = max(longest, d)
		}
		lay.add("fleet.busy_ratio", busy/(p.fleetWall.Seconds()*float64(p.cfg.Parallelism)))
		lay.add("fleet.longest_job_s", longest)
		return nil
	})
}
