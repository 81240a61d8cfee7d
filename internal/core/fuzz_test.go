package core

import (
	"math"
	"testing"

	"repro/internal/disk"
	"repro/internal/sched"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// FuzzDriveConfig builds a drive from a fuzzed config (arm count kept
// small), serves a short loaded trace, and optionally fails an arm
// midway. The drive must either reject the config with an error or
// complete every request with a finite, nonnegative response time; it
// must never panic.
func FuzzDriveConfig(f *testing.F) {
	f.Add(uint8(0), int8(0), int8(0), false, false, uint8(0), uint8(0), 0, uint8(0), 0.0, uint8(0), int64(1))
	f.Add(uint8(3), int8(2), int8(2), true, true, uint8(3), uint8(4), 100, uint8(4), 0.125, uint8(1), int64(2))
	f.Add(uint8(1), int8(2), int8(1), true, false, uint8(1), uint8(2), 1999, uint8(2), 0.9, uint8(0), int64(3))
	f.Add(uint8(1), int8(0), int8(0), false, false, uint8(2), uint8(0), 0, uint8(2), math.NaN(), uint8(0), int64(4))
	f.Add(uint8(7), int8(8), int8(8), true, true, uint8(0), uint8(8), -5, uint8(8), 0.5, uint8(7), int64(5))
	f.Fuzz(func(t *testing.T, arms uint8, channels, heads int8, multiArm, idleReturn bool,
		policy, nCyls uint8, cyl int, nOffs uint8, off float64, failArm uint8, seed int64) {
		n := 1 + int(arms%8)
		sc := disk.DefaultSchedConfig()
		sc.Policy = sched.Policy(policy % 4)
		cfg := Config{
			Actuators:      n,
			Sched:          &sc,
			Channels:       int(channels),
			HeadsPerArm:    int(heads % 9),
			MultiArmMotion: multiArm,
			IdleReturn:     idleReturn,
		}
		if nCyls > 0 {
			cfg.InitialCyls = make([]int, nCyls%9)
			for i := range cfg.InitialCyls {
				cfg.InitialCyls[i] = cyl + 397*i
			}
		}
		if nOffs > 0 {
			cfg.AngularOffsets = make([]float64, nOffs%9)
			for i := range cfg.AngularOffsets {
				cfg.AngularOffsets[i] = off + 0.1*float64(i)
			}
		}
		eng := simkit.New()
		d, err := New(eng, smallModel(), cfg)
		if err != nil {
			return
		}
		tr := randomTrace(seed, 60, 2, d.Capacity())
		if i := int(failArm % 9); i < n {
			eng.At(tr[len(tr)/2].ArrivalMs, func() { _ = d.FailArm(i) })
		}
		done := 0
		resp := replay(eng, func(r trace.Request, fin func(float64)) {
			d.Submit(r, func(at float64) { done++; fin(at) })
		}, tr)
		if done != len(tr) {
			t.Fatalf("%+v: completed %d of %d requests", cfg, done, len(tr))
		}
		for i, r := range resp {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Fatalf("%+v: request %d response %v", cfg, i, r)
			}
		}
	})
}
