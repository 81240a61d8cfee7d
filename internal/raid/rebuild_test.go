package raid

import (
	"testing"

	"repro/internal/simkit"
	"repro/internal/trace"
)

func TestMemberExtents(t *testing.T) {
	r0, _ := NewRAID0(4, 1000, 10)
	if r0.MemberExtent() != 1000 {
		t.Fatalf("RAID0 extent %d", r0.MemberExtent())
	}
	r1, _ := NewRAID1(2, 777)
	if r1.MemberExtent() != 777 {
		t.Fatalf("RAID1 extent %d", r1.MemberExtent())
	}
	r5, _ := NewRAID5(4, 1000, 10)
	if r5.MemberExtent() != 1000 {
		t.Fatalf("RAID5 extent %d", r5.MemberExtent())
	}
}

// rebuildTarget is the failure surface the shared controller gives
// both array topologies.
type rebuildTarget interface {
	FailMember(i int) error
	Rebuild(dev int, chunkSectors int64, depth int, onDone func(copiedSectors int64)) error
	Degraded() bool
}

// transports builds the same layout behind each op transport — direct
// calls on one event loop and links between logical processes — and
// returns the array, the runner of the controller's timeline, and the
// ops each member served. The controller logic is one copy; these
// tables check it behaves the same behind either.
var transports = []struct {
	name  string
	build func(t *testing.T, layout Layout) (rebuildTarget, simkit.Runner, func(member int) []trace.Request)
}{
	{"array", func(t *testing.T, layout Layout) (rebuildTarget, simkit.Runner, func(int) []trace.Request) {
		eng, a, disks := fakeArray(t, layout, nil)
		return a, eng, func(i int) []trace.Request { return disks[i].ops }
	}},
	{"partitioned", func(t *testing.T, layout Layout) (rebuildTarget, simkit.Runner, func(int) []trace.Request) {
		pe, p, fakes := partitionedOver(t, layout, 1<<16, 1)
		return p, pe.Runner(0), func(i int) []trace.Request { return fakes[i].ops }
	}},
}

func TestRebuildValidation(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			r5, _ := NewRAID5(4, 1000, 10)
			a, _, _ := tr.build(t, r5)
			if err := a.Rebuild(0, 100, 1, nil); err == nil {
				t.Fatalf("rebuild of healthy member accepted")
			}
			if err := a.FailMember(0); err != nil {
				t.Fatal(err)
			}
			if err := a.Rebuild(-1, 100, 1, nil); err == nil {
				t.Fatalf("negative member accepted")
			}
			if err := a.Rebuild(4, 100, 1, nil); err == nil {
				t.Fatalf("out-of-range member accepted")
			}
			if err := a.Rebuild(0, 0, 1, nil); err == nil {
				t.Fatalf("zero chunk accepted")
			}
			if err := a.Rebuild(0, 100, 0, nil); err == nil {
				t.Fatalf("zero depth accepted")
			}
			if !a.Degraded() {
				t.Fatalf("a refused rebuild returned the member to service")
			}
		})
	}
}

func TestRebuildCopiesFullExtentAndRestores(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			r5, _ := NewRAID5(4, 1000, 10)
			a, eng, ops := tr.build(t, r5)
			if err := a.FailMember(1); err != nil {
				t.Fatal(err)
			}
			var copied int64
			eng.At(0, func() {
				if err := a.Rebuild(1, 100, 2, func(n int64) { copied = n }); err != nil {
					t.Errorf("Rebuild: %v", err)
				}
			})
			eng.Run()
			if copied != 1000 {
				t.Fatalf("copied %d sectors, want the full 1000-sector extent", copied)
			}
			if a.Degraded() {
				t.Fatalf("array still degraded after rebuild")
			}
			// 10 chunks: each chunk writes once to the replacement and
			// reads once from each of the three survivors.
			writes := 0
			for _, op := range ops(1) {
				if !op.Read {
					writes++
				}
			}
			if writes != 10 {
				t.Fatalf("replacement received %d writes, want 10", writes)
			}
			survivorReads := len(ops(0)) + len(ops(2)) + len(ops(3))
			if survivorReads != 30 {
				t.Fatalf("survivors serviced %d reads, want 30", survivorReads)
			}
		})
	}
}

func TestRebuildDepthBoundsConcurrency(t *testing.T) {
	// With depth 1, chunks serialize: total time = chunks × (read+write).
	r1, _ := NewRAID1(2, 400)
	eng, a, _ := fakeArray(t, r1, []float64{1, 1})
	if err := a.FailMember(0); err != nil {
		t.Fatal(err)
	}
	var doneAt float64
	eng.At(0, func() {
		if err := a.Rebuild(0, 100, 1, func(int64) { doneAt = eng.Now() }); err != nil {
			t.Errorf("Rebuild: %v", err)
		}
	})
	eng.Run()
	// 4 chunks × (1 ms read + 1 ms write) = 8 ms, serialized.
	if doneAt != 8 {
		t.Fatalf("depth-1 rebuild finished at %v, want 8", doneAt)
	}

	// With depth 4 everything overlaps on the idle fakes: 2 ms.
	eng2, a2, _ := fakeArray(t, r1, []float64{1, 1})
	if err := a2.FailMember(0); err != nil {
		t.Fatal(err)
	}
	var doneAt2 float64
	eng2.At(0, func() {
		if err := a2.Rebuild(0, 100, 4, func(int64) { doneAt2 = eng2.Now() }); err != nil {
			t.Errorf("Rebuild: %v", err)
		}
	})
	eng2.Run()
	if doneAt2 != 2 {
		t.Fatalf("depth-4 rebuild finished at %v, want 2", doneAt2)
	}
}

// stubLayout is a redundant layout with a configurable member extent
// whose Reconstruct derives chunks without any survivor I/O — the two
// edge shapes the rebuild completion logic must survive.
type stubLayout struct {
	members int
	extent  int64
}

func (s *stubLayout) Name() string                     { return "stub" }
func (s *stubLayout) Members() int                     { return s.members }
func (s *stubLayout) Capacity() int64                  { return s.extent }
func (s *stubLayout) Plan(trace.Request) (Plan, error) { return Plan{}, nil }
func (s *stubLayout) MemberExtent() int64              { return s.extent }
func (s *stubLayout) Reconstruct(Op, int) ([]Op, error) {
	return nil, nil
}

// Regression: a zero-sector member extent used to leave the rebuild
// stuck forever — the issue loop exited without inflight I/O, so
// finish() never ran, onDone never fired, and the member stayed failed.
func TestRebuildZeroExtentCompletesImmediately(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			lay := &stubLayout{members: 2, extent: 0}
			a, eng, ops := tr.build(t, lay)
			if err := a.FailMember(0); err != nil {
				t.Fatal(err)
			}
			copied := int64(-1)
			if err := a.Rebuild(0, 100, 2, func(n int64) { copied = n }); err != nil {
				t.Fatalf("Rebuild: %v", err)
			}
			eng.Run()
			if copied != 0 {
				t.Fatalf("onDone reported %d copied sectors, want 0 (and -1 means it never fired)", copied)
			}
			if a.Degraded() {
				t.Fatalf("member still failed after the trivial sweep")
			}
			for i := 0; i < lay.members; i++ {
				if n := len(ops(i)); n != 0 {
					t.Fatalf("member %d received %d ops rebuilding an empty extent", i, n)
				}
			}
		})
	}
}

// Regression: a layout whose Reconstruct needs no survivor reads used to
// strand every chunk — nothing ever completed to decrement inflight, so
// the sweep hung with the member failed and onDone unreached. Behind
// the partitioned transport each chunk's write goes straight over the
// replacement's link.
func TestRebuildCompletesWhenReconstructNeedsNoReads(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			lay := &stubLayout{members: 2, extent: 400}
			a, eng, ops := tr.build(t, lay)
			if err := a.FailMember(1); err != nil {
				t.Fatal(err)
			}
			var copied int64
			doneAt := -1.0
			eng.At(0, func() {
				if err := a.Rebuild(1, 100, 2, func(n int64) { copied, doneAt = n, eng.Now() }); err != nil {
					t.Errorf("Rebuild: %v", err)
				}
			})
			eng.Run()
			if doneAt <= 0 {
				t.Fatalf("rebuild never finished (done at %g)", doneAt)
			}
			if copied != 400 {
				t.Fatalf("copied %d sectors, want the full 400-sector extent", copied)
			}
			if a.Degraded() {
				t.Fatalf("member still failed after rebuild")
			}
			if got := len(ops(0)); got != 0 {
				t.Fatalf("survivor serviced %d reads, want 0 from a derive-only layout", got)
			}
			writes := 0
			for _, op := range ops(1) {
				if !op.Read {
					writes++
				}
			}
			if writes != 4 {
				t.Fatalf("replacement received %d writes, want 4 chunks", writes)
			}
		})
	}
}

func TestForegroundFlowsDuringRebuild(t *testing.T) {
	r5, _ := NewRAID5(4, 1000, 10)
	eng, a, _ := fakeArray(t, r5, nil)
	if err := a.FailMember(2); err != nil {
		t.Fatal(err)
	}
	fgDone := 0
	eng.At(0, func() {
		if err := a.Rebuild(2, 50, 1, nil); err != nil {
			t.Errorf("Rebuild: %v", err)
		}
		for i := int64(0); i < 5; i++ {
			a.Submit(trace.Request{LBA: i * 10, Sectors: 10, Read: true},
				func(float64) { fgDone++ })
		}
	})
	eng.Run()
	if fgDone != 5 {
		t.Fatalf("foreground completed %d of 5 during rebuild", fgDone)
	}
	if a.Degraded() {
		t.Fatalf("rebuild did not finish")
	}
}
