package trace

import "fmt"

// Stream is a sequential source of requests in arrival order. Generator
// implements it (synthesis without materialization); a materialized
// Trace adapts to it with Trace.Stream; RemapStream layers the MD→HC-SD
// address migration on any stream.
type Stream interface {
	// Next yields the stream's following request; ok is false when the
	// stream is exhausted.
	Next() (r Request, ok bool)
}

var _ Stream = (*Generator)(nil)

// sliceStream walks a materialized trace.
type sliceStream struct {
	t Trace
	i int
}

func (s *sliceStream) Next() (Request, bool) {
	if s.i >= len(s.t) {
		return Request{}, false
	}
	r := s.t[s.i]
	s.i++
	return r, true
}

// Stream returns a one-pass Stream over the materialized trace.
func (t Trace) Stream() Stream { return &sliceStream{t: t} }

// Err reports the terminal error of a stream, if it has one. Streams
// backed by parsers or validators (Reader, remapStream) expose an
// Err() method that is non-nil after Next returned false because of a
// failure rather than exhaustion; plain streams (slices, generators)
// cannot fail and report nil. Every consumer that drains a stream of
// unvetted origin must check Err afterwards.
func Err(s Stream) error {
	if es, ok := s.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// Line reports the input line of the request s returned last, for
// error messages. Streams parsed from text (Reader, and streams layered
// on one) expose a Line() method; others report 0.
func Line(s Stream) int {
	if ls, ok := s.(interface{ Line() int }); ok {
		return ls.Line()
	}
	return 0
}

// remapStream applies the Remap address migration on the fly.
type remapStream struct {
	s       Stream
	offsets []int64
	n       int
	err     error
	done    bool
}

func (s *remapStream) Next() (Request, bool) {
	if s.done {
		return Request{}, false
	}
	r, ok := s.s.Next()
	if !ok {
		s.done = true
		return Request{}, false
	}
	if r.Disk >= len(s.offsets) {
		s.err = fmt.Errorf("trace: request %d targets disk %d but only %d offsets given",
			s.n, r.Disk, len(s.offsets))
		s.done = true
		return Request{}, false
	}
	s.n++
	r.LBA += s.offsets[r.Disk]
	r.Disk = 0
	return r, true
}

// Err reports why the stream terminated early: an unroutable request,
// or the inner stream's own failure.
func (s *remapStream) Err() error {
	if s.err != nil {
		return s.err
	}
	return Err(s.s)
}

// Line reports the inner stream's line of the last request.
func (s *remapStream) Line() int { return Line(s.s) }

// RemapStream retargets every request of s to a single disk (disk 0) at
// LBA offset[r.Disk]+r.LBA — the streaming form of Trace.Remap,
// implementing the paper's MD→HC-SD migration layout. A request
// targeting a disk beyond the offset table ends the stream with an
// error (see Err) — foreign traces reach this boundary, so it must not
// crash the process.
func RemapStream(s Stream, offsets []int64) Stream {
	return &remapStream{s: s, offsets: offsets}
}
