package disk

import (
	"testing"

	"repro/internal/defect"
	"repro/internal/simkit"
	"repro/internal/trace"
)

func defectDrive(t *testing.T) (*simkit.Engine, *Drive, *defect.Table) {
	t.Helper()
	m := smallModel()
	eng := simkit.New()
	probe, err := New(eng, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := defect.NewTable(probe.Capacity(), probe.Capacity()/100)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := simkit.New()
	d, err := New(eng2, m, Options{Defects: tab})
	if err != nil {
		t.Fatal(err)
	}
	return eng2, d, tab
}

func TestDefectTableShrinksCapacity(t *testing.T) {
	_, d, tab := defectDrive(t)
	if d.Capacity() != tab.UserSectors() {
		t.Fatalf("Capacity %d, want user space %d", d.Capacity(), tab.UserSectors())
	}
}

func TestHealthyRequestsUnaffectedByDefectTable(t *testing.T) {
	eng, d, _ := defectDrive(t)
	done := 0
	eng.At(0, func() {
		for i := 0; i < 20; i++ {
			lba := int64(i) * 10000
			d.Submit(trace.Request{LBA: lba, Sectors: 8, Read: false},
				func(float64) { done++ })
		}
	})
	eng.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	if d.DefectHops() != 0 {
		t.Fatalf("healthy requests recorded %d defect hops", d.DefectHops())
	}
}

func TestRemappedSectorCostsExtraPositioning(t *testing.T) {
	serviceTime := func(grow bool) float64 {
		eng, d, tab := defectDrive(t)
		if grow {
			if err := tab.Grow(50004); err != nil {
				t.Fatal(err)
			}
		}
		var at float64
		eng.At(0, func() {
			d.Submit(trace.Request{LBA: 50000, Sectors: 8, Read: false},
				func(done float64) { at = done })
		})
		eng.Run()
		return at
	}
	healthy := serviceTime(false)
	remapped := serviceTime(true)
	if remapped <= healthy {
		t.Fatalf("remapped request (%v ms) not slower than healthy (%v ms)", remapped, healthy)
	}
}

func TestDefectHopsCounted(t *testing.T) {
	eng, d, tab := defectDrive(t)
	if err := tab.Grow(1004); err != nil {
		t.Fatal(err)
	}
	done := false
	eng.At(0, func() {
		d.Submit(trace.Request{LBA: 1000, Sectors: 8, Read: true},
			func(float64) { done = true })
	})
	eng.Run()
	if !done {
		t.Fatalf("fragmented request never completed")
	}
	if d.DefectHops() != 1 {
		t.Fatalf("DefectHops = %d, want 1", d.DefectHops())
	}
}

func TestRequestBeyondUserSpacePanics(t *testing.T) {
	eng, d, tab := defectDrive(t)
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("request into the spare pool did not panic")
			}
		}()
		d.Submit(trace.Request{LBA: tab.UserSectors() - 4, Sectors: 8, Read: true}, nil)
	})
	eng.Run()
}

// TestRequestInsideSparePoolPanics pins the Submit bound to the
// addressable capacity, not the raw geometry: a request that lies
// entirely within the spare pool [UserSectors, TotalSectors) is
// physically on the platters, so a TotalSectors bound would accept it
// silently — aliasing sectors the defect table owns.
func TestRequestInsideSparePoolPanics(t *testing.T) {
	eng, d, tab := defectDrive(t)
	if tab.UserSectors()+8 > d.Geometry().TotalSectors() {
		t.Fatalf("spare pool too small for the test request")
	}
	eng.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("request entirely inside the spare pool did not panic")
			}
		}()
		d.Submit(trace.Request{LBA: tab.UserSectors(), Sectors: 8, Read: true}, nil)
	})
	eng.Run()
}

// TestBackgroundFragmentsStayBackground checks that a background request
// split around a remapped sector waits on the background queue, so it
// never delays foreground work, and counts once as a background
// completion.
func TestBackgroundFragmentsStayBackground(t *testing.T) {
	eng, d, tab := defectDrive(t)
	if err := tab.Grow(50004); err != nil {
		t.Fatal(err)
	}
	exts, err := tab.Split(50000, 8)
	if err != nil || len(exts) < 2 {
		t.Fatalf("Split = %v, %v; want several extents", exts, err)
	}
	var fgDone, bgDone float64
	bgCalls := 0
	eng.At(0, func() {
		// The first foreground request occupies the arm, so everything
		// submitted after it queues.
		d.Submit(trace.Request{LBA: 900000, Sectors: 8, Read: true}, nil)
		d.SubmitBackground(trace.Request{LBA: 50000, Sectors: 8, Read: true},
			func(at float64) { bgDone = at; bgCalls++ })
		d.Submit(trace.Request{LBA: 50100, Sectors: 8, Read: true},
			func(at float64) { fgDone = at })
		if got := d.BackgroundPending(); got != len(exts) {
			t.Errorf("BackgroundPending = %d, want the %d extents", got, len(exts))
		}
		if got := d.Snapshot().Queue.Len; got != 1 {
			t.Errorf("foreground queue length = %d, want 1", got)
		}
	})
	eng.Run()
	if bgCalls != 1 {
		t.Fatalf("background done called %d times, want 1", bgCalls)
	}
	if fgDone <= 0 || fgDone >= bgDone {
		t.Fatalf("queued foreground request finished at %v, background at %v", fgDone, bgDone)
	}
	if got := d.BackgroundCompleted(); got != 1 {
		t.Fatalf("BackgroundCompleted = %d, want 1", got)
	}
	if got := d.Stats().Completed; got != 2 {
		t.Fatalf("Completed = %d, want the 2 foreground requests", got)
	}
}
