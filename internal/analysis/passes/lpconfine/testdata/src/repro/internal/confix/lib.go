// Package confix is the lpconfine fixture library: a controller
// aggregate in the raid.Partitioned mold — controller state on LP 0,
// one member device per LP 1+i — plus the helper shapes the analyzer
// must trace interprocedurally.
package confix

import "repro/internal/simkit/par"

// Ctl is a controller aggregate: holding the engine marks every field
// as controller-owned state for the ownership check — including the
// fields of the State it embeds.
type Ctl struct {
	State
	Eng  *par.Engine
	Done int
	Busy []float64
}

// State is controller state shared through embedding, in the mold of
// raid's controller inside Partitioned: it holds no engine itself, so
// only its place inside Ctl makes its fields controller-owned.
type State struct {
	Completed int
}

// Bump is a helper on the embedded state reached from a member-LP
// event (see conapp.BadEmbedded): the write is flagged here.
func (s *State) Bump() {
	s.Completed++ // want "controller-owned"
}

// Finish is reached through a call chain from a member-LP event (see
// conapp.BadThroughHelper) — the reserveReturn shape. The write is
// flagged here, in the function that performs it, not at the call.
func (c *Ctl) Finish(i int) {
	c.Done++ // want "controller-owned"
	_ = i
}

// Stamp is the same helper shape reached only from controller events:
// no member context ever flows in, so the field write is fine.
func (c *Ctl) Stamp(at float64) {
	c.Busy[0] = at
}

// IssueOp mirrors raid's issueOp: it arms a member event, but invokes
// onBack only inside a Send back to LP 0 — so callbacks handed to it
// run in controller context and may write controller state freely.
func (c *Ctl) IssueOp(dev int, onBack func()) {
	lp := c.Eng.LP(dev + 1)
	c.Eng.LP(0).Send(dev+1, c.Eng.LP(0).Now()+1, func() {
		lp.Send(0, lp.Now()+1, func() { onBack() })
	})
}
