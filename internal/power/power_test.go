package power

import (
	"math"
	"testing"
	"testing/quick"
)

func barracuda() DriveSpec {
	return DriveSpec{Platters: 4, DiameterIn: 3.7, RPM: 7200, Actuators: 1}
}

func mustModel(t testing.TB, spec DriveSpec) *Model {
	t.Helper()
	m, err := NewModel(Default(), spec)
	if err != nil {
		t.Fatalf("NewModel(%+v): %v", spec, err)
	}
	return m
}

func TestSpecValidation(t *testing.T) {
	bad := []DriveSpec{
		{Platters: 0, DiameterIn: 3.7, RPM: 7200, Actuators: 1},
		{Platters: 4, DiameterIn: 0, RPM: 7200, Actuators: 1},
		{Platters: 4, DiameterIn: 3.7, RPM: 0, Actuators: 1},
		{Platters: 4, DiameterIn: 3.7, RPM: 7200, Actuators: 0},
	}
	for _, spec := range bad {
		if _, err := NewModel(Default(), spec); err == nil {
			t.Fatalf("accepted invalid spec %+v", spec)
		}
	}
}

// The calibration anchors from Table 1 of the paper.
func TestBarracudaCalibration(t *testing.T) {
	m := mustModel(t, barracuda())
	peak := m.PeakPower()
	if peak < 11 || peak > 15 {
		t.Fatalf("Barracuda-class peak power %v W, want ~13 W", peak)
	}
	idle := m.IdlePower()
	if idle < 5 || idle > 9 {
		t.Fatalf("Barracuda-class idle power %v W, want ~7 W", idle)
	}
}

func TestFourActuatorCalibration(t *testing.T) {
	spec := barracuda()
	spec.Actuators = 4
	m := mustModel(t, spec)
	peak := m.PeakPower()
	if peak < 30 || peak > 38 {
		t.Fatalf("4-actuator peak power %v W, want ~34 W", peak)
	}
	// The paper's key observation: within ~3x of the conventional drive.
	conv := mustModel(t, barracuda())
	ratio := peak / conv.PeakPower()
	if ratio > 3.0 {
		t.Fatalf("4-actuator/conventional peak ratio %v, want <= 3", ratio)
	}
}

func TestExtraActuatorsDoNotChangeIdleMuch(t *testing.T) {
	one := mustModel(t, barracuda())
	spec := barracuda()
	spec.Actuators = 4
	four := mustModel(t, spec)
	// Idle power differs only by per-arm electronics, well under a watt.
	if d := four.IdlePower() - one.IdlePower(); d < 0 || d > 1 {
		t.Fatalf("idle power delta for 3 extra arms = %v W, want (0,1]", d)
	}
}

func TestSeekPowerScalesWithActiveVCMs(t *testing.T) {
	spec := barracuda()
	spec.Actuators = 4
	m := mustModel(t, spec)
	p1 := m.ModePower(Seek, 1)
	p2 := m.ModePower(Seek, 2)
	p4 := m.ModePower(Seek, 4)
	if !(p1 < p2 && p2 < p4) {
		t.Fatalf("seek power not increasing with VCMs: %v %v %v", p1, p2, p4)
	}
	// Each extra VCM costs the same.
	if math.Abs((p2-p1)-(p4-p2)/2) > 1e-9 {
		t.Fatalf("VCM increments not linear: %v vs %v", p2-p1, (p4-p2)/2)
	}
	// Requesting more VCMs than actuators clamps.
	if m.ModePower(Seek, 99) != p4 {
		t.Fatalf("active VCM count not clamped to actuator count")
	}
	// And at least one VCM is always in motion during a seek.
	if m.ModePower(Seek, 0) != p1 {
		t.Fatalf("zero active VCMs not clamped up to 1")
	}
}

func TestRotationalLatencyDrawsIdlePower(t *testing.T) {
	m := mustModel(t, barracuda())
	if m.ModePower(RotLatency, 0) != m.ModePower(Idle, 0) {
		t.Fatalf("rotational-latency power %v != idle power %v",
			m.ModePower(RotLatency, 0), m.ModePower(Idle, 0))
	}
}

func TestSPMPowerScaling(t *testing.T) {
	base := mustModel(t, barracuda())

	bigger := barracuda()
	bigger.DiameterIn = 7.4
	mBig := mustModel(t, bigger)
	wantRatio := math.Pow(2, 4.6)
	if r := mBig.SPMPower() / base.SPMPower(); math.Abs(r-wantRatio) > 1e-6 {
		t.Fatalf("diameter doubling scaled SPM by %v, want %v", r, wantRatio)
	}

	faster := barracuda()
	faster.RPM = 14400
	mFast := mustModel(t, faster)
	wantRatio = math.Pow(2, 2.8)
	if r := mFast.SPMPower() / base.SPMPower(); math.Abs(r-wantRatio) > 1e-6 {
		t.Fatalf("RPM doubling scaled SPM by %v, want %v", r, wantRatio)
	}

	stacked := barracuda()
	stacked.Platters = 8
	mStack := mustModel(t, stacked)
	if r := mStack.SPMPower() / base.SPMPower(); math.Abs(r-2) > 1e-9 {
		t.Fatalf("platter doubling scaled SPM by %v, want 2", r)
	}
}

func TestLowerRPMReducesPower(t *testing.T) {
	for _, rpm := range []float64{6200, 5200, 4200} {
		spec := barracuda()
		spec.RPM = rpm
		spec.Actuators = 4
		m := mustModel(t, spec)
		ref := barracuda()
		ref.Actuators = 4
		m72 := mustModel(t, ref)
		if m.IdlePower() >= m72.IdlePower() {
			t.Fatalf("idle power at %v RPM (%v) not below 7200 RPM (%v)",
				rpm, m.IdlePower(), m72.IdlePower())
		}
	}
}

func TestAccountantBreakdown(t *testing.T) {
	m := mustModel(t, barracuda())
	a := NewAccountant(m)
	a.AddSeek(100, 1)
	a.Add(RotLatency, 200)
	a.Add(Transfer, 50)
	b := a.Breakdown(1000)

	if math.Abs(b.Elapsed-1000) > 1e-12 {
		t.Fatalf("Elapsed = %v, want 1000", b.Elapsed)
	}
	// Idle bucket covers the 650 unaccounted ms plus nothing else.
	wantIdle := 650 * m.IdlePower() / 1000
	if math.Abs(b.Watts[Idle]-wantIdle) > 1e-9 {
		t.Fatalf("idle watts %v, want %v", b.Watts[Idle], wantIdle)
	}
	wantSeek := 100 * m.ModePower(Seek, 1) / 1000
	if math.Abs(b.Watts[Seek]-wantSeek) > 1e-9 {
		t.Fatalf("seek watts %v, want %v", b.Watts[Seek], wantSeek)
	}
	// Total is bounded by peak and at least idle level... approximately.
	if b.Total() < m.IdlePower()*0.9 || b.Total() > m.PeakPower() {
		t.Fatalf("total %v outside [idle*0.9, peak]", b.Total())
	}
}

func TestAccountantAddSeekViaAdd(t *testing.T) {
	m := mustModel(t, barracuda())
	a := NewAccountant(m)
	a.Add(Seek, 10) // routes through AddSeek with 1 VCM
	if a.ModeMs(Seek) != 10 {
		t.Fatalf("seek ms = %v, want 10", a.ModeMs(Seek))
	}
	b := a.Breakdown(10)
	want := m.ModePower(Seek, 1)
	if math.Abs(b.Watts[Seek]-want) > 1e-9 {
		t.Fatalf("all-seek run watts %v, want %v", b.Watts[Seek], want)
	}
}

func TestAccountantEmptyAndDegenerate(t *testing.T) {
	m := mustModel(t, barracuda())
	a := NewAccountant(m)
	if b := a.Breakdown(0); b.Total() != 0 {
		t.Fatalf("zero-elapsed breakdown total %v, want 0", b.Total())
	}
	b := a.Breakdown(100)
	if math.Abs(b.Total()-m.IdlePower()) > 1e-9 {
		t.Fatalf("pure-idle run total %v, want idle %v", b.Total(), m.IdlePower())
	}
}

func TestAccountantOverfullClampsIdle(t *testing.T) {
	m := mustModel(t, barracuda())
	a := NewAccountant(m)
	a.Add(Transfer, 200)
	b := a.Breakdown(100) // busier than elapsed: idle clamps at 0
	if b.Watts[Idle] != 0 {
		t.Fatalf("idle watts %v, want 0 when busy exceeds elapsed", b.Watts[Idle])
	}
}

func TestBreakdownAddStacks(t *testing.T) {
	m := mustModel(t, barracuda())
	a1 := NewAccountant(m)
	a1.Add(Transfer, 100)
	a2 := NewAccountant(m)
	a2.AddSeek(100, 1)
	b := a1.Breakdown(1000).Add(a2.Breakdown(1000))
	if math.Abs(b.Total()-(a1.Breakdown(1000).Total()+a2.Breakdown(1000).Total())) > 1e-9 {
		t.Fatalf("Add did not stack totals")
	}
	if b.Elapsed != 1000 {
		t.Fatalf("Elapsed = %v, want 1000", b.Elapsed)
	}
}

// Property: average power always lies within [0, peak].
func TestPropertyAveragePowerBounded(t *testing.T) {
	m := mustModel(t, DriveSpec{Platters: 4, DiameterIn: 3.7, RPM: 7200, Actuators: 4})
	f := func(seekMs, rotMs, xferMs, idleMs uint16) bool {
		a := NewAccountant(m)
		a.AddSeek(float64(seekMs), 2)
		a.Add(RotLatency, float64(rotMs))
		a.Add(Transfer, float64(xferMs))
		elapsed := float64(seekMs) + float64(rotMs) + float64(xferMs) + float64(idleMs)
		if elapsed == 0 {
			return true
		}
		tot := a.Breakdown(elapsed).Total()
		return tot >= 0 && tot <= m.PeakPower()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTable1RowsAndPowerTrends(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table1 has %d rows, want 5", len(rows))
	}
	coeff := Default()
	ibm := rows[0].PowerW(coeff)
	barr := rows[3].PowerW(coeff)
	par4 := rows[4].PowerW(coeff)

	if ibm != 6600 {
		t.Fatalf("IBM 3380 power %v, want published 6600", ibm)
	}
	if rows[0].Modeled() || !rows[3].Modeled() || !rows[4].Modeled() {
		t.Fatalf("Modeled flags wrong: %v %v %v",
			rows[0].Modeled(), rows[3].Modeled(), rows[4].Modeled())
	}
	// Paper's claims: the parallel drive is two orders of magnitude below
	// the mainframe drive, and within 3x of the conventional drive.
	if ibm/par4 < 100 {
		t.Fatalf("IBM/parallel power ratio %v, want >= 100", ibm/par4)
	}
	if par4/barr > 3 {
		t.Fatalf("parallel/conventional power ratio %v, want <= 3", par4/barr)
	}
}

func TestComputeEfficiency(t *testing.T) {
	m := mustModel(t, barracuda())
	a := NewAccountant(m)
	a.Add(Transfer, 1000)
	b := a.Breakdown(10000) // 10 s run
	e := ComputeEfficiency(b, 500, 10000)
	if math.Abs(e.IOPS-50) > 1e-9 {
		t.Fatalf("IOPS = %v, want 50", e.IOPS)
	}
	if e.WattsAvg != b.Total() {
		t.Fatalf("WattsAvg mismatch")
	}
	if math.Abs(e.IOPSPerWatt-50/b.Total()) > 1e-9 {
		t.Fatalf("IOPSPerWatt = %v", e.IOPSPerWatt)
	}
	// Energy per IO: W*10s/500 = W/50 joules = 20*W mJ.
	if math.Abs(e.EnergyPerIOmJ-b.Total()*20) > 1e-6 {
		t.Fatalf("EnergyPerIOmJ = %v", e.EnergyPerIOmJ)
	}
	// Degenerate inputs are all-zero.
	if ComputeEfficiency(b, 0, 10000) != (Efficiency{}) {
		t.Fatalf("zero completions not degenerate")
	}
	if ComputeEfficiency(b, 10, 0) != (Efficiency{}) {
		t.Fatalf("zero elapsed not degenerate")
	}
}

func TestEfficiencyFavorsParallelDriveOverArray(t *testing.T) {
	// The paper's bottom line in one number: at equal served IOPS, a
	// single 4-actuator drive beats a 4-drive array on energy per IO.
	single := mustModel(t, DriveSpec{Platters: 4, DiameterIn: 3.7, RPM: 7200, Actuators: 4})
	member := mustModel(t, barracuda())

	aSingle := NewAccountant(single)
	aSingle.Add(Transfer, 2000)
	bSingle := aSingle.Breakdown(60000)

	var bArray Breakdown
	for i := 0; i < 4; i++ {
		am := NewAccountant(member)
		am.Add(Transfer, 500)
		bArray = bArray.Add(am.Breakdown(60000))
	}
	const served = 10000
	eSingle := ComputeEfficiency(bSingle, served, 60000)
	eArray := ComputeEfficiency(bArray, served, 60000)
	if eSingle.EnergyPerIOmJ >= eArray.EnergyPerIOmJ {
		t.Fatalf("parallel drive %.2f mJ/IO not below array %.2f mJ/IO",
			eSingle.EnergyPerIOmJ, eArray.EnergyPerIOmJ)
	}
}

// TestModePowerMatchesFormula pins the memoized motor powers: every
// mode at every VCM count (including the clamped ones) must be the same
// bits as evaluating the model's formulas on the spot.
func TestModePowerMatchesFormula(t *testing.T) {
	c := Default()
	for _, spec := range []DriveSpec{
		barracuda(),
		{Platters: 4, DiameterIn: 3.7, RPM: 7200, Actuators: 4},
		{Platters: 6, DiameterIn: 3.5, RPM: 4200, Actuators: 2},
		{Platters: 1, DiameterIn: 2.5, RPM: 15000, Actuators: 3},
	} {
		m := mustModel(t, spec)
		spm := c.SPMCoeff * float64(spec.Platters) *
			math.Pow(spec.DiameterIn, c.SPMDiamExp) *
			math.Pow(spec.RPM/1000, c.SPMRPMExp)
		vcm := c.VCMCoeff * math.Pow(spec.DiameterIn, c.VCMDiamExp)
		base := spm + (c.ElecW + float64(spec.Actuators)*c.ElecPerArmW)
		for _, mode := range Modes {
			for n := -1; n <= spec.Actuators+1; n++ {
				want := base
				switch mode {
				case Seek:
					active := min(max(n, 1), spec.Actuators)
					want = base + float64(active)*vcm
				case Transfer:
					want = base + c.TransferW
				}
				if got := m.ModePower(mode, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%+v: ModePower(%v, %d) = %v, formula %v", spec, mode, n, got, want)
				}
			}
		}
		if m.SPMPower() != spm || m.VCMPower() != vcm {
			t.Errorf("%+v: SPM/VCM = %v/%v, formula %v/%v", spec, m.SPMPower(), m.VCMPower(), spm, vcm)
		}
	}
}

var benchSink float64

func BenchmarkModePower(b *testing.B) {
	m := mustModel(b, DriveSpec{Platters: 4, DiameterIn: 3.7, RPM: 7200, Actuators: 4})
	for i := 0; i < b.N; i++ {
		benchSink += m.ModePower(Modes[i%len(Modes)], 1+i%4)
	}
}
