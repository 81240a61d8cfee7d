package raid

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkit/par"
)

// buildPartitionedR5 assembles a RAID-5 partitioned array over fake
// members — the redundant layout the degraded and rebuild paths need.
func buildPartitionedR5(t *testing.T, members, workers int) (*par.Engine, *Partitioned) {
	t.Helper()
	const memberSectors = 1 << 16
	layout, err := NewRAID5(members, memberSectors, 128)
	if err != nil {
		t.Fatal(err)
	}
	pe, p, _ := partitionedOver(t, layout, memberSectors, workers)
	return pe, p
}

// TestPartitionedDegradedValidation pins the failure-path error
// contract: the partitioned array must reject exactly what Array
// rejects, at the same call sites.
func TestPartitionedDegradedValidation(t *testing.T) {
	// A redundancy-free layout cannot lose a member at all.
	_, p0 := buildPartitioned(t, 4, 1)
	if err := p0.CanFailMember(0); err == nil {
		t.Fatalf("RAID-0 partitioned array accepted a member failure preflight")
	}
	if err := p0.FailMember(0); err == nil {
		t.Fatalf("RAID-0 partitioned array accepted a member failure")
	}

	_, p := buildPartitionedR5(t, 4, 1)
	if err := p.FailMember(-1); err == nil {
		t.Fatalf("negative member accepted")
	}
	if err := p.FailMember(4); err == nil {
		t.Fatalf("out-of-range member accepted")
	}
	if err := p.Rebuild(1, 100, 1, nil); err == nil {
		t.Fatalf("rebuild of a healthy member accepted")
	}
	if err := p.RepairMember(1); err == nil {
		t.Fatalf("repair of a healthy member accepted")
	}
	if err := p.FailMember(1); err != nil {
		t.Fatal(err)
	}
	if err := p.FailMember(1); err == nil {
		t.Fatalf("double failure of one member accepted")
	}
	if err := p.FailMember(2); err == nil {
		t.Fatalf("second member failure accepted under the single-failure model")
	}
	if err := p.Rebuild(1, 0, 1, nil); err == nil {
		t.Fatalf("zero chunk accepted")
	}
	if err := p.Rebuild(1, 100, 0, nil); err == nil {
		t.Fatalf("zero depth accepted")
	}
	if !p.Degraded() {
		t.Fatalf("array not degraded after FailMember")
	}
	if err := p.RepairMember(1); err != nil {
		t.Fatal(err)
	}
	if p.Degraded() {
		t.Fatalf("array still degraded after RepairMember")
	}
}

// TestPartitionedDegradedServes checks Array's degraded semantics hold
// across the LP boundary: with a member down, reads keep completing
// (reconstructed from survivors over the links) and the snapshot
// reports the failure state.
func TestPartitionedDegradedServes(t *testing.T) {
	pe, p := buildPartitionedR5(t, 4, 1)
	if err := p.FailMember(2); err != nil {
		t.Fatal(err)
	}
	tr := partTrace(7, 200, p.Capacity())
	resp := replayPartitioned(pe, p, tr)
	for i, r := range resp {
		if r <= 0 {
			t.Fatalf("request %d never completed degraded (resp %g)", i, r)
		}
	}
	s := p.Snapshot()
	if s.Completed != uint64(len(tr)) {
		t.Fatalf("completed %d of %d degraded requests", s.Completed, len(tr))
	}
	if s.Counters["failed_members"] != 1 {
		t.Fatalf("failed_members %d, want 1", s.Counters["failed_members"])
	}
	if s.Counters["reconstructed"] == 0 {
		t.Fatalf("no reads were served by reconstruction")
	}
}

// TestPartitionedRebuildMatchesArray checks the cross-LP rebuild sweeps
// exactly the extent the sequential Array sweeps for the same layout
// shape: identical copied-sector counts, member back in service.
func TestPartitionedRebuildMatchesArray(t *testing.T) {
	r5, err := NewRAID5(4, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	eng, a, _ := fakeArray(t, r5, nil)
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	var arrCopied int64
	eng.At(0, func() {
		if err := a.Rebuild(1, 100, 2, func(n int64) { arrCopied = n }); err != nil {
			t.Errorf("Array.Rebuild: %v", err)
		}
	})
	eng.Run()

	pe, p := buildPartitionedR5(t, 4, 1)
	if err := p.FailMember(1); err != nil {
		t.Fatal(err)
	}
	var partCopied int64
	p.Controller().At(0, func() {
		if err := p.Rebuild(1, p.Layout().(MemberSizer).MemberExtent()/10, 2,
			func(n int64) { partCopied = n }); err != nil {
			t.Errorf("Partitioned.Rebuild: %v", err)
		}
	})
	pe.Run()

	if arrCopied != r5.MemberExtent() {
		t.Fatalf("Array copied %d, want extent %d", arrCopied, r5.MemberExtent())
	}
	if partCopied != p.Layout().(MemberSizer).MemberExtent() {
		t.Fatalf("Partitioned copied %d, want extent %d",
			partCopied, p.Layout().(MemberSizer).MemberExtent())
	}
	if a.Degraded() || p.Degraded() {
		t.Fatalf("degraded after rebuild: array=%v partitioned=%v", a.Degraded(), p.Degraded())
	}
}

// TestPartitionedDegradedRandomDeathIdentity is the randomized cross-LP
// determinism check (heap_test idiom): across random member-death
// times, dead members, rebuild schedules, and pipeline depths, a
// degraded run with one worker and with eight must agree bit-for-bit —
// per-request response times, copied sectors, rebuild completion time,
// and snapshot bytes. Run under -race this also exercises that rebuild
// traffic stays on controller-LP closures.
func TestPartitionedDegradedRandomDeathIdentity(t *testing.T) {
	const members = 5
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		dead := rng.Intn(members)
		deathMs := 50 + rng.Float64()*300
		rebuildMs := deathMs + 20 + rng.Float64()*200
		depth := 1 + rng.Intn(6)
		chunks := int64(8 + rng.Intn(56))

		run := func(workers int) (resp []float64, snap []byte, copied int64, doneAt float64, windows uint64) {
			pe, p := buildPartitionedR5(t, members, workers)
			ctrl := p.Controller()
			extent := p.Layout().(MemberSizer).MemberExtent()
			chunk := (extent + chunks - 1) / chunks
			ctrl.At(deathMs, func() {
				if err := p.FailMember(dead); err != nil {
					t.Errorf("trial %d: FailMember: %v", trial, err)
				}
			})
			ctrl.At(rebuildMs, func() {
				if err := p.Rebuild(dead, chunk, depth, func(n int64) {
					copied = n
					doneAt = ctrl.Now()
				}); err != nil {
					t.Errorf("trial %d: Rebuild: %v", trial, err)
				}
			})
			tr := partTrace(int64(77+trial), 400, p.Capacity())
			resp = replayPartitioned(pe, p, tr)
			// Requests conserved: every accepted request finished,
			// through death, degraded service and rebuild.
			if p.Submitted() != uint64(len(tr)) || p.Completed() != p.Submitted() {
				t.Fatalf("trial %d, %d workers: submitted %d, completed %d of %d requests",
					trial, workers, p.Submitted(), p.Completed(), len(tr))
			}
			js, err := obs.MarshalSnapshot(p.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return resp, js, copied, doneAt, pe.Windows()
		}

		resp1, snap1, copied1, done1, win1 := run(1)
		resp8, snap8, copied8, done8, win8 := run(8)

		if copied1 == 0 || done1 <= 0 {
			t.Fatalf("trial %d: rebuild never completed (copied %d, done %g)", trial, copied1, done1)
		}
		if copied1 != copied8 {
			t.Fatalf("trial %d: copied %d with 1 worker, %d with 8", trial, copied1, copied8)
		}
		if done1 != done8 {
			t.Fatalf("trial %d: rebuild done %g with 1 worker, %g with 8", trial, done1, done8)
		}
		if win1 != win8 {
			t.Fatalf("trial %d: %d windows with 1 worker, %d with 8", trial, win1, win8)
		}
		for i := range resp1 {
			if resp1[i] != resp8[i] {
				t.Fatalf("trial %d: request %d responded %g with 1 worker, %g with 8",
					trial, i, resp1[i], resp8[i])
			}
		}
		if !bytes.Equal(snap1, snap8) {
			t.Fatalf("trial %d: snapshots diverge:\n1 worker: %s\n8 workers: %s", trial, snap1, snap8)
		}
	}
}
