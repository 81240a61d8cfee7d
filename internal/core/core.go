// Package core names the paper's contribution, intra-disk parallelism:
// the DASH taxonomy of design points and the constructors of the drives
// that realize them — the evaluated HC-SD-SA(n) design (taxonomy point
// D1·An·S1·H1), the two relaxed variants the technical report studies
// (multiple arms in motion, multiple channels) and the §8 graceful
// degradation. The drive itself is disk.Drive: a conventional drive is
// its one-arm point.
package core

import (
	"repro/internal/disk"
	"repro/internal/simkit"
)

// DASH names a design point in the paper's intra-disk parallelism
// taxonomy (see disk.DASH).
type DASH = disk.DASH

// The taxonomy's named points and its parser, which live with the DASH
// type: Conventional is D1A1S1H1, SA(n) is the paper's evaluated
// HC-SD-SA(n) family D1·An·S1·H1, and ParseDASH reads names like "D1A4S1H1".
var Conventional, SA, ParseDASH = disk.Conventional, disk.SA, disk.ParseDASH

// Config describes an intra-disk parallel drive (see disk.Config).
type Config = disk.Config

// ParallelDrive is an intra-disk parallel drive: a single spindle and
// platter stack accessed by several independently positioned arm
// assemblies (see disk.Drive).
type ParallelDrive = disk.Drive

// New attaches a parallel drive built from the base model to the
// scheduler — the sequential engine or one logical process of the
// partitioned engine. The config is validated first.
func New(eng simkit.Scheduler, model disk.Model, cfg Config) (*ParallelDrive, error) {
	return disk.NewParallel(eng, model, cfg)
}

// NewSA builds the paper's HC-SD-SA(n) design point on the given base
// model: n actuators, single arm in motion, single channel, SPTF.
func NewSA(eng simkit.Scheduler, model disk.Model, n int) (*ParallelDrive, error) {
	return New(eng, model, Config{Actuators: n})
}
