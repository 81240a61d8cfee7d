package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/fleet"
)

// whatIfTestQuery is a small but non-trivial query: a faulted SA(2)
// under 1.5× Financial load, replicated twice.
func whatIfTestQuery() WhatIfQuery {
	return WhatIfQuery{
		Workload:     "Financial",
		Actuators:    2,
		ArrivalScale: 1.5,
		Requests:     4000,
		Seed:         7,
		Reps:         2,
		ArmFaults:    []WhatIfArmFault{{AtFrac: 0.3, Arm: 1}},
	}
}

// whatIfFingerprint renders everything a cached answer would serialize,
// so byte-identity of the fingerprint pins byte-identity of the answer.
func whatIfFingerprint(runs []*WhatIfRun) string {
	s := ""
	for _, r := range runs {
		s += fmt.Sprintf("%s %v %d %.9f %.9f %d/%d %d/%d\n",
			r.Label, r.Resp.Summarize(), r.Completed, r.Power.Total(), r.ElapsedMs,
			r.HealthyArms, r.TotalArms, r.FaultsInjected, r.FaultsRefused)
	}
	return s
}

func runWhatIfJobs(t *testing.T, q WhatIfQuery, parallelism int) []*WhatIfRun {
	t.Helper()
	runs, err := fleet.Run(WhatIfJobs(q, Observe{}), fleet.Options{
		Parallelism: parallelism,
		BaseSeed:    q.Seed,
	})
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return runs
}

// TestWhatIfDeterministic pins the serving layer's soundness argument:
// the same query yields a byte-identical answer on repeated runs and at
// any parallelism.
func TestWhatIfDeterministic(t *testing.T) {
	q := whatIfTestQuery()
	a := whatIfFingerprint(runWhatIfJobs(t, q, 1))
	b := whatIfFingerprint(runWhatIfJobs(t, q, 1))
	c := whatIfFingerprint(runWhatIfJobs(t, q, 4))
	if a != b {
		t.Errorf("repeated runs differ:\n%s\nvs\n%s", a, b)
	}
	if a != c {
		t.Errorf("parallelism 1 vs 4 differ:\n%s\nvs\n%s", a, c)
	}
	if a == "" {
		t.Fatal("empty fingerprint")
	}
}

// TestWhatIfArmFaultApplied checks the fault actually lands: the drive
// ends the run with one deconfigured actuator.
func TestWhatIfArmFaultApplied(t *testing.T) {
	r, err := RunWhatIf(context.Background(), whatIfTestQuery(), 7, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalArms != 2 || r.HealthyArms != 1 {
		t.Errorf("arms = %d/%d, want 1/2", r.HealthyArms, r.TotalArms)
	}
	if r.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", r.FaultsInjected)
	}
	if r.Completed != 4000 {
		t.Errorf("Completed = %d, want 4000", r.Completed)
	}
}

// whatIfBadQueries are the rejection paths a serving layer relies on to
// 400 malformed queries instead of running them.
func whatIfBadQueries() []WhatIfQuery {
	return []WhatIfQuery{
		{Workload: "nope"},
		{Workload: "Financial", Actuators: 9},
		{Workload: "Financial", RPM: 9999},
		{Workload: "Financial", ArrivalScale: 100},
		{Workload: "Financial", Reps: 65},
		{Workload: "Financial", ArmFaults: []WhatIfArmFault{{AtFrac: 2, Arm: 0}}},
		{Workload: "Financial", ArmFaults: []WhatIfArmFault{{AtFrac: 0.5, Arm: 3}}},
		{Workload: "Financial", ArrivalScale: math.NaN()},
		{Workload: "Financial", ArrivalScale: math.Inf(1)},
		{Workload: "Financial", ArmFaults: []WhatIfArmFault{{AtFrac: math.NaN(), Arm: 0}}},
		{Workload: "Financial", ArmFaults: []WhatIfArmFault{{AtFrac: math.Inf(-1), Arm: 0}}},
	}
}

func TestWhatIfValidate(t *testing.T) {
	for _, q := range whatIfBadQueries() {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", q)
		}
	}
	if err := whatIfTestQuery().Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

// FuzzWhatIfQuery feeds arbitrary bytes through the serving boundary's
// strict decode (unknown fields rejected) and Validate. Neither may
// panic, and a query Validate accepts must resolve to a valid workload
// spec and re-encode for the cache key, with Normalize idempotent.
func FuzzWhatIfQuery(f *testing.F) {
	for _, q := range append(whatIfBadQueries(), whatIfTestQuery(), WhatIfQuery{Workload: "TPC-C"}) {
		if data, err := json.Marshal(q); err == nil { // NaN and ±Inf do not encode
			f.Add(data)
		}
	}
	f.Add([]byte(`{"workload":"Financial","bogus":true}`))
	f.Add([]byte(`{"workload":"Websearch","rpm":5200,"arm_faults":[{"at_frac":1,"arm":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var q WhatIfQuery
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&q) != nil || q.Validate() != nil {
			return
		}
		n := q.Normalize()
		if !reflect.DeepEqual(n.Normalize(), n) {
			t.Fatalf("Normalize not idempotent: %+v vs %+v", n, n.Normalize())
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("normalized query rejected: %v", err)
		}
		spec, err := n.spec()
		if err != nil {
			t.Fatalf("valid query %+v: spec: %v", n, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("valid query %+v: spec invalid: %v", n, err)
		}
		if _, err := json.Marshal(n); err != nil {
			t.Fatalf("valid query %+v does not encode: %v", n, err)
		}
		_ = n.Label()
	})
}

// cancelAfterCtx is a deterministic mid-run cancellation: it reports
// itself canceled starting from the n-th Err poll, with no goroutines
// or wall-clock involved. The replay polls Err once per arrival batch,
// so the n-th poll is the n-th batch boundary.
type cancelAfterCtx struct {
	context.Context
	n     int
	polls int
}

func (c *cancelAfterCtx) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestWhatIfCancelStopsWithinBatch pins the promptness contract: a
// canceled job schedules no arrivals past the batch in which it
// observed the cancellation, and returns the context error instead of
// a partial result.
func TestWhatIfCancelStopsWithinBatch(t *testing.T) {
	q := whatIfTestQuery()
	q.Reps = 1
	q.ArmFaults = nil
	q.Requests = 20000

	ctx := &cancelAfterCtx{Context: context.Background(), n: 3}
	r, err := RunWhatIf(ctx, q, 7, Observe{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r != nil {
		t.Fatalf("canceled run returned a partial result: %+v", r)
	}
	// The third poll happens on arrival 3*whatIfCancelBatch; nothing
	// beyond that batch may have been scheduled.
	if got, limit := ctx.polls, 3; got != limit {
		t.Errorf("ctx polled %d times, want exactly %d (stop within one batch)", got, limit)
	}
}
