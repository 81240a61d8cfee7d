package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestLPRAIDWorkerIdentity: the multi-LP scenario produces identical
// results at one worker and many — the window protocol, not scheduling
// luck, fixes the outcome. The degraded input adds a member death and
// a rebuild whose traffic crosses the member links.
func TestLPRAIDWorkerIdentity(t *testing.T) {
	cfg := Config{Requests: 3000, Seed: 1, Observe: Observe{Trace: true, Metrics: true}}
	for _, degraded := range []bool{false, true} {
		run := func(workers int) *LPRAIDResult {
			r, err := LPRAID(cfg, LPRAIDOpts{Drives: 8, Workers: workers, Degraded: degraded})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		one, many := run(1), run(4)
		if one.Windows != many.Windows {
			t.Fatalf("degraded=%v: windows %d vs %d", degraded, one.Windows, many.Windows)
		}
		if one.Windows < 2 {
			t.Fatalf("degraded=%v: degenerate run: %d windows", degraded, one.Windows)
		}
		if degraded && (one.Injected == 0 || one.CopiedSectors == 0) {
			t.Fatalf("degraded run injected %d faults and copied %d sectors", one.Injected, one.CopiedSectors)
		}
		aj, err := obs.MarshalSnapshot(*one.Snap)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := obs.MarshalSnapshot(*many.Snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, bj) {
			t.Fatalf("degraded=%v: snapshot bytes diverge across worker counts", degraded)
		}
		if !reflect.DeepEqual(one, many) {
			t.Fatalf("degraded=%v: results (samples, power, span events) diverge across worker counts", degraded)
		}
	}
}
