package mech

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// refTransferMs is the straightforward transfer walk the kernel must
// reproduce bit for bit: locate every track the span crosses, add its
// transfer time, and add a track switch before each following track.
func refTransferMs(g *geom.Geometry, rot *Rotation, switchMs float64, lba int64, sectors int) float64 {
	t := 0.0
	cur := lba
	remaining := sectors
	for remaining > 0 {
		l := g.Locate(cur)
		onTrack := l.SPT - l.Sector
		if onTrack > remaining {
			onTrack = remaining
		}
		t += rot.TransferTime(onTrack, l.SPT)
		remaining -= onTrack
		cur += int64(onTrack)
		if remaining > 0 {
			t += switchMs
		}
	}
	return t
}

// refAngleAt is the math.Mod formulation of Rotation.AngleAt.
func refAngleAt(r *Rotation, t float64) float64 {
	frac := math.Mod(t/r.PeriodMs(), 1)
	if frac < 0 {
		frac += 1
	}
	return frac
}

// kernelGeom is a small multi-zone geometry whose zones have distinct
// sectors-per-track counts, so short spans cross zone boundaries.
func kernelGeom(t testing.TB, serpentine bool) *geom.Geometry {
	t.Helper()
	g, err := geom.New(geom.Spec{
		Name:     "kernel-test",
		Platters: 2, SurfacesPerPlatter: 2,
		Cylinders: 41, Zones: 5,
		OuterSPT: 63, InnerSPT: 37,
		SectorBytes: 512, TrackSkew: 7, CylinderSkew: 11,
		Serpentine: serpentine,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testKernel(t testing.TB, serpentine bool, rpm float64) *Kernel {
	t.Helper()
	g := kernelGeom(t, serpentine)
	return &Kernel{
		Geo:                  g,
		Curve:                mustCurve(t, SeekSpec{SingleCylMs: 0.8, AvgMs: 4, FullStrokeMs: 9, MaxCyl: g.Cylinders() - 1}),
		Rot:                  mustRotation(t, rpm),
		ControllerOverheadMs: 0.3,
		TrackSwitchMs:        0.7,
		SeekScale:            1,
		RotScale:             1,
	}
}

func layoutName(serpentine bool) string {
	if serpentine {
		return "serpentine"
	}
	return "cylinder-major"
}

func TestTransferMsMatchesPerTrackWalk(t *testing.T) {
	for _, serp := range []bool{false, true} {
		t.Run(layoutName(serp), func(t *testing.T) {
			k := testKernel(t, serp, 7200)
			total := k.Geo.TotalSectors()
			check := func(lba int64, n int) {
				t.Helper()
				got := k.TransferMs(lba, n)
				want := refTransferMs(k.Geo, k.Rot, k.TrackSwitchMs, lba, n)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("TransferMs(%d, %d) = %v (%#x), per-track walk %v (%#x)",
						lba, n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			// Every start around every zone boundary, with lengths that
			// stop short of, on, and past the boundary.
			for _, z := range k.Geo.Zones() {
				for _, start := range []int64{z.FirstLBA - 70, z.FirstLBA - 1, z.FirstLBA, z.FirstLBA + 1, z.FirstLBA + int64(z.SPT) - 1} {
					if start < 0 {
						continue
					}
					for _, n := range []int{1, 2, 36, 37, 63, 64, 70, 71, 200, 5000} {
						if start+int64(n) <= total {
							check(start, n)
						}
					}
				}
			}
			// Spans ending exactly on the last sector, from one sector up
			// to the whole device.
			for _, n := range []int{1, 37, 38, 74, 1000, int(total)} {
				check(total-int64(n), n)
			}
			// A dense sweep of short spans over the first two zones.
			for lba := int64(0); lba < k.Geo.Zones()[2].FirstLBA; lba += 13 {
				check(lba, int(lba%150)+1)
			}
			if got := k.TransferMs(total+10, 0); got != 0 {
				t.Fatalf("empty span = %v, want 0", got)
			}
		})
	}
}

func TestTransferMsPanicsLikeLocate(t *testing.T) {
	k := testKernel(t, false, 7200)
	total := k.Geo.TotalSectors()
	for _, tc := range []struct {
		lba int64
		n   int
	}{
		{total, 1},         // starts past the end
		{-1, 4},            // negative address
		{total - 3, 4},     // runs one sector past the end
		{total - 100, 400}, // runs well past the end
	} {
		got := panicMessage(func() { k.TransferMs(tc.lba, tc.n) })
		want := panicMessage(func() { refTransferMs(k.Geo, k.Rot, k.TrackSwitchMs, tc.lba, tc.n) })
		if got == "" || got != want {
			t.Errorf("TransferMs(%d, %d) panicked %q, per-track walk %q", tc.lba, tc.n, got, want)
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestAngleAtMatchesMod(t *testing.T) {
	for _, rpm := range []float64{4200, 5200, 7200, 10000, 15000} {
		r := mustRotation(t, rpm)
		p := r.PeriodMs()
		ts := []float64{0, math.Copysign(0, -1), 1e-300, p / 3, p, 2 * p, 3 * p, 7 * p,
			1e6 * p, 1 << 52, 1 << 53, 1e17, math.MaxFloat64, -p / 4, -3 * p}
		for i := 1; i < 2000; i++ {
			ts = append(ts, float64(i)*p, float64(i)*p*(1+1e-15), float64(i)*1.37)
		}
		for _, at := range ts {
			got, want := r.AngleAt(at), refAngleAt(r, at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rpm %v: AngleAt(%v) = %v (%#x), math.Mod gives %v (%#x)",
					rpm, at, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestKernelPositionComposesSeekAndLatency(t *testing.T) {
	k := testKernel(t, false, 7200)
	k.SeekScale, k.RotScale = 0.5, 0.25
	loc := k.Geo.Locate(k.Geo.TotalSectors() / 2)
	seek, rot := k.Position(3, loc, 12.5)
	wantSeek := k.Curve.Time(3-loc.Cyl) * 0.5
	wantRot := k.Rot.LatencyTo(loc.Angle, 12.5+k.ControllerOverheadMs+wantSeek) * 0.25
	if seek != wantSeek || rot != wantRot {
		t.Fatalf("Position = (%v, %v), want (%v, %v)", seek, rot, wantSeek, wantRot)
	}
}

func FuzzTransferMs(f *testing.F) {
	f.Add(int64(0), uint16(1), false)
	f.Add(int64(1100), uint16(300), false)
	f.Add(int64(1100), uint16(300), true)
	f.Add(int64(-5), uint16(9000), true)
	ks := []*Kernel{testKernel(f, false, 7200), testKernel(f, true, 5200)}
	f.Fuzz(func(t *testing.T, lba int64, n uint16, serpentine bool) {
		k := ks[0]
		if serpentine {
			k = ks[1]
		}
		total := k.Geo.TotalSectors()
		lba %= total
		if lba < 0 {
			lba += total
		}
		sectors := int(n)
		if rest := total - lba; int64(sectors) > rest {
			sectors = int(rest)
		}
		got := k.TransferMs(lba, sectors)
		want := refTransferMs(k.Geo, k.Rot, k.TrackSwitchMs, lba, sectors)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("TransferMs(%d, %d) = %v, per-track walk %v", lba, sectors, got, want)
		}
	})
}

func FuzzAngleAt(f *testing.F) {
	r := mustRotation(f, 7200)
	for _, at := range []float64{0, r.PeriodMs(), 3 * r.PeriodMs(), 1e17, math.MaxFloat64, -1} {
		f.Add(at)
	}
	f.Fuzz(func(t *testing.T, at float64) {
		if math.IsNaN(at) || math.IsInf(at, 0) {
			t.Skip()
		}
		got, want := r.AngleAt(at), refAngleAt(r, at)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AngleAt(%v) = %v (%#x), math.Mod gives %v (%#x)",
				at, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

var benchSink float64

// BenchmarkTransferMs times a 2 MiB span of the Barracuda-class
// geometry that crosses a zone boundary.
func BenchmarkTransferMs(b *testing.B) {
	g, err := geom.New(geom.Spec{
		Name:     "barracuda-es-750",
		Platters: 4, SurfacesPerPlatter: 2,
		Cylinders: 159000, Zones: 16,
		OuterSPT: 1430, InnerSPT: 870,
		SectorBytes: 512, TrackSkew: 120, CylinderSkew: 180,
	})
	if err != nil {
		b.Fatal(err)
	}
	k := &Kernel{Geo: g, Rot: mustRotation(b, 7200), TrackSwitchMs: 0.8}
	lba := g.Zones()[1].FirstLBA - 2048
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += k.TransferMs(lba, 4096)
	}
}
