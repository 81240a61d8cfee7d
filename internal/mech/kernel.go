package mech

import "repro/internal/geom"

// Kernel is the service-time kernel every drive model shares: given an
// arm position and a request, it computes the positioning cost (seek,
// then rotational latency) and the media transfer time, at DiskSim's
// level of detail. The drive models keep what is theirs — which arm
// serves a request, the nearest-head minimum of multi-head arms, which
// spindle speed is current, and the power and statistics accounting —
// and call the kernel for the mechanics.
//
// Every result is bit-for-bit what the straightforward formulation
// computes (see the equivalence tests): the kernel is where the
// simulator's hot arithmetic is made fast, so a speed-up here may never
// change a simulated result.
type Kernel struct {
	Geo   *geom.Geometry
	Curve *SeekCurve
	Rot   *Rotation

	// ControllerOverheadMs is the command-processing time paid before
	// the arm starts moving; TrackSwitchMs is the head or cylinder
	// switch paid between consecutive tracks of one transfer.
	ControllerOverheadMs float64
	TrackSwitchMs        float64

	// SeekScale and RotScale multiply every seek time and rotational
	// latency (the paper's Figure 4 limit study). 1 leaves the
	// mechanics unscaled; 0 makes them free.
	SeekScale, RotScale float64
}

// Seek reports the scaled time to move the arm from cylinder fromCyl to
// toCyl for an access that starts at time now, and the time atTrack at
// which the heads settle on the target track: the seek begins once the
// controller overhead has elapsed.
func (k *Kernel) Seek(fromCyl, toCyl int, now float64) (seekMs, atTrack float64) {
	seekMs = k.Curve.Time(fromCyl-toCyl) * k.SeekScale
	return seekMs, now + k.ControllerOverheadMs + seekMs
}

// RotLatency reports the scaled time, from time at, until the platter
// angle target (a fraction of a revolution) next passes under the head.
func (k *Kernel) RotLatency(target, at float64) float64 {
	return k.Rot.LatencyTo(target, at) * k.RotScale
}

// Position reports the positioning cost of starting service at loc at
// time now with the arm on cylinder fromCyl and a single head at
// angular offset zero: the seek, then the rotational latency to the
// sector from the moment the heads settle.
func (k *Kernel) Position(fromCyl int, loc geom.Loc, now float64) (seekMs, rotMs float64) {
	seekMs, atTrack := k.Seek(fromCyl, loc.Cyl, now)
	return seekMs, k.RotLatency(loc.Angle, atTrack)
}

// TransferMs reports the media time of reading or writing `sectors`
// consecutive blocks from lba: the per-track transfer times plus one
// track switch between consecutive tracks, summed track by track in
// address order. It locates lba once, then steps whole tracks within
// its zone and picks up the next zone's sectors-per-track at each zone
// boundary — a zone's tracks start at multiples of its SPT from the
// zone's first block in both layouts, so no further lookup is needed.
// A span reaching past the end of the geometry panics as
// geom.Geometry.Locate does.
func (k *Kernel) TransferMs(lba int64, sectors int) float64 {
	if sectors <= 0 {
		return 0
	}
	l := k.Geo.Locate(lba)
	zones := k.Geo.Zones()
	zi := l.Zone
	zoneEnd := zones[zi].FirstLBA + zones[zi].Sectors
	spt := l.SPT
	onTrack := spt - l.Sector
	cur := lba
	remaining := sectors
	t := 0.0
	for {
		if onTrack > remaining {
			onTrack = remaining
		}
		t += k.Rot.TransferTime(onTrack, spt)
		remaining -= onTrack
		if remaining == 0 {
			return t
		}
		t += k.TrackSwitchMs
		cur += int64(onTrack)
		if cur == zoneEnd {
			zi++
			if zi == len(zones) {
				k.Geo.Locate(cur) // past the last zone: panics
			}
			zoneEnd = zones[zi].FirstLBA + zones[zi].Sectors
			spt = zones[zi].SPT
		}
		onTrack = spt
	}
}
