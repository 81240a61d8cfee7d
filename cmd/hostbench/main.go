// Command hostbench measures how fast this repository's simulator runs
// on the host, end to end and layer by layer. It drives the simulator
// from outside, through the exported functions of its packages, on four
// workloads:
//
//	paper    every section of `idpbench -exp all`, run in-process through
//	         the same experiments calls, fleet parallelism = nproc
//	replay   a long Financial-shaped SPC-1 CSV trace streamed through
//	         trace.OpenFile → RemapStream → ReplayStream into HC-SD-SA(4)
//	         on one sequential simkit.Engine (the `idpsim -replay` path)
//	array64  the healthy 64-drive partitioned RAID-0 of 2-actuator drives
//	         (experiments.LPRAID's scenario) with par workers = nproc
//	serve    an in-process serve.Server (the idpserved handler) fed an
//	         open-loop constant-rate schedule of what-if queries
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash cmd/hostbench/run.sh --workload replay --seed 3 --seconds 30 --trace 0
//
// Each run repeats its workload's fixed unit of work (a pass, or the
// query schedule) for --seconds and reports medians. Every output is
// checked: simulated results against the reference digests recorded in
// refdigests.json for the benchmark's input seeds, run invariants
// (submitted = completed, stream errors nil), and every serve answer
// against a serial recomputation on a fresh server.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones. With --trace 1 they are the per-layer ones, timed
// by wrappers around the calls the benchmark makes into each layer; the
// traced run alternates untraced and traced passes so it can report the
// tracing overhead. The line before it records the method and the
// environment, and in traced runs each layer's self time. README.md
// describes every metric and why each workload exists.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// recordedSeeds is the size of the benchmark's input space: --seed n
// selects input seed 1 + n mod recordedSeeds, whose simulated results
// have reference digests in refdigests.json.
const recordedSeeds = 32

// setupReps is how many times a pass repeats its set-up, each timed, so
// that a run has enough set-up samples for a steady median.
const setupReps = 5

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workerProcs is how many worker processes share a run of a pass-based
// workload, one after another, each for an equal part of --seconds.
// Pass times differ by a few percent from one process to the next, so a
// run's median over several processes is steadier than one process's.
const workerProcs = 5

// samples is what a worker process measured, pass by pass; the run
// reports medians over the samples of all its workers.
type samples struct {
	Attempted, Failed int
	Setups            []float64 // s, every set-up
	Walls             []float64 // s, untraced passes
	TracedWalls       []float64 // s, traced passes
	Allocs            []float64 // bytes, untraced passes
	SimRequests       []float64 // simulated requests completed, untraced passes
	Layers            layerSamples
	LayerSelf         map[string]float64 // s, summed over traced passes
	Spans             int
	PeakRSSMB         []float64 // one per worker process
	Method            map[string]any
}

// merge folds a worker's samples into s.
func (s *samples) merge(w *samples) {
	s.Attempted += w.Attempted
	s.Failed += w.Failed
	s.Setups = append(s.Setups, w.Setups...)
	s.Walls = append(s.Walls, w.Walls...)
	s.TracedWalls = append(s.TracedWalls, w.TracedWalls...)
	s.Allocs = append(s.Allocs, w.Allocs...)
	s.SimRequests = append(s.SimRequests, w.SimRequests...)
	for name, xs := range w.Layers {
		for _, x := range xs {
			s.Layers.add(name, x)
		}
	}
	for layer, d := range w.LayerSelf {
		s.LayerSelf[layer] += d
	}
	s.Spans += w.Spans
	s.PeakRSSMB = append(s.PeakRSSMB, w.PeakRSSMB...)
	for k, v := range w.Method {
		if _, ok := s.Method[k]; !ok {
			s.Method[k] = v
		}
	}
}

// bench carries one run's settings and what it has measured so far.
type bench struct {
	workload string
	seed     int64 // --seed as given
	inSeed   int64 // the recorded input seed --seed selects
	seconds  time.Duration
	traced   bool
	workdir  string

	s       samples
	metrics map[string]metric
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: paper, replay, array64 or serve")
		seed    = flag.Int64("seed", 1, "workload seed; selects one of the recorded input seeds")
		seconds = flag.Int("seconds", 10, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build/hostbench", "directory for generated inputs and span dumps")
		record  = flag.String("record", "", "write reference digests for every recorded seed to this file, then exit")
		worker  = flag.Int("worker", -1, "internal: run as worker process number n of a run and print its samples")
	)
	flag.Parse()
	if *record != "" {
		if err := recordDigests(*record, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	wd, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q (want paper, replay, array64 or serve)\n", *wl)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *wl,
		seed:     *seed,
		inSeed:   inputSeed(*seed),
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		workdir:  *workdir,
		s:        samples{Method: map[string]any{}, LayerSelf: map[string]float64{}},
		metrics:  map[string]metric{},
	}
	if *worker >= 0 {
		b.seconds /= workerProcs
		if err := wd.measure(b); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		b.s.PeakRSSMB = []float64{peakRSSMB()}
		printJSON(b.s)
		return
	}
	if err := b.run(wd); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if err := b.checkMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if b.s.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "hostbench: no operation attempted")
		os.Exit(1)
	}
	for name, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "hostbench: metric %s is %v\n", name, m.Value)
			os.Exit(1)
		}
	}
	header := map[string]any{"method": b.s.Method, "env": environment(b)}
	if b.traced {
		header["layer_self_s"] = b.s.LayerSelf
	}
	printJSON(header)
	printJSON(result{Correct: b.s.Failed == 0, Attempted: b.s.Attempted, Failed: b.s.Failed, Metrics: b.metrics})
}

// workloadDef is one workload. prepare (optional) runs once per run
// and writes the inputs; measure runs in each worker process and
// records its passes in b.s. serve has neither: it runs as a whole in
// the run's own process (whole).
type workloadDef struct {
	prepare func(b *bench) error
	measure func(b *bench) error
	whole   func(b *bench) error
}

// workloads maps each workload name to its definition.
var workloads = map[string]workloadDef{
	"paper":   {measure: measurePaper},
	"replay":  {prepare: prepareReplay, measure: measureReplay},
	"array64": {measure: measureArray64},
	"serve":   {whole: runServe},
}

// run runs the workload: as a whole, or prepared here and measured by
// workerProcs worker processes one after another, then reported.
func (b *bench) run(wd workloadDef) error {
	if wd.whole != nil {
		return wd.whole(b)
	}
	if wd.prepare != nil {
		if err := wd.prepare(b); err != nil {
			return err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if b.traced {
		trace = "1"
	}
	for i := 0; i < workerProcs; i++ {
		cmd := exec.Command(self, "--workload", b.workload, "--seed", strconv.FormatInt(b.seed, 10),
			"--seconds", strconv.Itoa(int(b.seconds/time.Second)), "--trace", trace,
			"--workdir", b.workdir, "--worker", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("worker process %d: %w", i, err)
		}
		var w samples
		if err := json.Unmarshal(out, &w); err != nil {
			return fmt.Errorf("worker process %d: %w", i, err)
		}
		b.s.merge(&w)
	}
	b.s.Method["worker_processes"] = workerProcs
	b.report()
	return nil
}

// report turns the merged samples of a pass-based workload into its
// metrics: medians over every pass of every worker process.
func (b *bench) report() {
	s := &b.s
	if !b.traced {
		b.set("setup_s", median(s.Setups), "s")
		b.set("wall_s", median(s.Walls), "s")
		b.set("sim_req_per_s", median(s.SimRequests)/median(s.Walls), "req/s")
		b.set("alloc_mb", median(s.Allocs)/1e6, "MB")
		b.set("peak_rss_mb", median(s.PeakRSSMB), "MB")
		return
	}
	s.Layers.set("bench.trace_overhead_s", median(s.TracedWalls)-median(s.Walls))
	s.Layers.set("bench.spans", float64(s.Spans))
	b.setLayers(s.Layers)
}

func inputSeed(seed int64) int64 {
	return 1 + (seed%recordedSeeds+recordedSeeds)%recordedSeeds
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: encoding output:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// set records one metric.
func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// fail counts n failed operations and says why on standard error.
func (b *bench) fail(n int, format string, args ...any) {
	b.s.Failed += n
	fmt.Fprintf(os.Stderr, "hostbench: FAIL: "+format+"\n", args...)
}

// checkDigest compares a simulated result's digest with the reference
// recorded for this workload, input size and seed.
func (b *bench) checkDigest(key, got string) bool {
	want, ok := referenceDigests()[key]
	if !ok {
		b.fail(1, "no reference digest recorded for %s", key)
		return false
	}
	if got != want {
		b.fail(1, "%s: digest %s, reference %s", key, got, want)
		return false
	}
	return true
}

// passes runs one unit of work repeatedly for the worker's share of the
// run, at least once; it starts another pass only if the last one would
// still fit. In a traced run, passes alternate between untraced (even)
// and traced (odd), at least one of each, so that the two can be
// compared; tr is non-nil only during traced passes.
func (b *bench) passes(pass func(i int, tr *tracer) error) error {
	atLeast := 1
	if b.traced {
		atLeast = 2
	}
	tr := newTracer()
	start := time.Now()
	var last time.Duration
	for i := 0; i < atLeast || time.Since(start)+last <= b.seconds; i++ {
		var ptr *tracer
		if b.traced && i%2 == 1 {
			ptr = tr
		}
		passStart := time.Now()
		if err := pass(i, ptr); err != nil {
			return err
		}
		last = time.Since(passStart)
	}
	if b.traced {
		b.s.LayerSelf = tr.selfTimes()
		b.s.Spans = len(tr.spans)
		return tr.write(filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d-%d.jsonl", b.workload, b.seed, os.Getpid())))
	}
	return nil
}

// memDelta reports the bytes allocated since before.
func memDelta(before *runtime.MemStats) float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

func readMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle of xs (the mean of the two middles for an
// even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, sorted in
// place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// environment describes the host and the build the run measured.
func environment(b *bench) map[string]any {
	env := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   b.workload,
		"seed":       b.seed,
		"input_seed": b.inSeed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.traced,
		"source":     sourceDigest(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				env["commit"] = kv.Value
			case "vcs.modified":
				env["commit_modified"] = kv.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test when the checkout carries
// no version control metadata: a SHA-256 over the path and contents of
// every Go source and go.mod file below the working directory, in path
// order, skipping hidden directories (build output lives there).
func sourceDigest() string {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
