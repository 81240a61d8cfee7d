package main

import (
	"fmt"
	"sort"
)

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, and perLayer the per-layer metrics every workload reports
// with --trace 1, with their units, as BENCHMARK.json declares them. A
// per-layer metric whose layer the workload does not exercise reads 0.
// The serve workload, which BENCHMARK.json does not list yet (see
// README.md), reports serveEndToEnd and serveLayer as well.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"sim_req_per_s": "req/s",
	"alloc_mb":      "MB",
	"peak_rss_mb":   "MB",
}

var serveEndToEnd = map[string]string{
	"query_p50_ms": "ms",
	"query_p99_ms": "ms",
}

var serveLayer = map[string]string{
	"serve.hit_ratio":   "ratio",
	"serve.hit_p50_ms":  "ms",
	"serve.miss_p50_ms": "ms",
	"serve.collapsed":   "count",
	"serve.computed":    "count",
	"serve.shed":        "count",
	"serve.queue_max":   "count",
	"bench.late_p99_ms": "ms",
}

var perLayer = map[string]string{
	"trace.next_s":                "s",
	"trace.ns_per_req":            "ns",
	"simkit.events":               "count",
	"simkit.self_s":               "s",
	"simkit.ns_per_event":         "ns",
	"core.event_s":                "s",
	"core.ns_per_event":           "ns",
	"core.submit_s":               "s",
	"geom.locate_ns":              "ns",
	"mech.seek_ns":                "ns",
	"mech.rotlat_ns":              "ns",
	"power.mode_ns":               "ns",
	"cache.hit_ratio":             "ratio",
	"sched.queue_max":             "count",
	"core.completed":              "count",
	"par.windows":                 "count",
	"par.busy_lps_per_window":     "count",
	"par.events":                  "count",
	"par.ns_per_event":            "ns",
	"par.us_per_window":           "us",
	"raid.completed":              "count",
	"experiments.limitstudy_s":    "s",
	"experiments.bottleneck_s":    "s",
	"experiments.multiactuator_s": "s",
	"experiments.reducedrpm_s":    "s",
	"experiments.raidstudy_s":     "s",
	"experiments.ablations_s":     "s",
	"experiments.altpower_s":      "s",
	"experiments.degradation_s":   "s",
	"experiments.lpraid_s":        "s",
	"experiments.sim_requests":    "count",
	"fleet.jobs":                  "count",
	"fleet.busy_ratio":            "ratio",
	"fleet.longest_job_s":         "s",
	"bench.trace_overhead_s":      "s",
	"bench.spans":                 "count",
}

// layerSamples collects each per-layer metric's value from every traced
// pass; the run reports the median.
type layerSamples map[string][]float64

func (l *layerSamples) add(name string, v float64) {
	if *l == nil {
		*l = layerSamples{}
	}
	(*l)[name] = append((*l)[name], v)
}

// set records a metric measured once per run.
func (l *layerSamples) set(name string, v float64) {
	if *l == nil {
		*l = layerSamples{}
	}
	(*l)[name] = []float64{v}
}

// setLayers reports every per-layer metric of the run: the median of its
// samples, or 0 when the workload does not exercise that layer.
func (b *bench) setLayers(l layerSamples) {
	for name, unit := range b.wantMetrics() {
		v := 0.0
		if xs := l[name]; len(xs) > 0 {
			v = median(xs)
		}
		if _, ok := b.metrics[name]; !ok {
			b.set(name, v, unit)
		}
	}
}

// wantMetrics is the metric set the run must print, with units.
func (b *bench) wantMetrics() map[string]string {
	base, extra := endToEnd, serveEndToEnd
	if b.traced {
		base, extra = perLayer, serveLayer
	}
	want := map[string]string{}
	for name, unit := range base {
		want[name] = unit
	}
	if b.workload == "serve" {
		for name, unit := range extra {
			want[name] = unit
		}
	}
	return want
}

// checkMetrics reports a metric the run should have printed but did
// not, or one no list declares.
func (b *bench) checkMetrics() error {
	want := b.wantMetrics()
	var problems []string
	for name, unit := range want {
		if m, ok := b.metrics[name]; !ok || m.Unit != unit {
			problems = append(problems, "missing "+name)
		}
	}
	for name := range b.metrics {
		if _, ok := want[name]; !ok {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics: %v", problems)
	}
	return nil
}
