package disk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/defect"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// digestTrace is a loaded random stream with some locality: about one
// request in five re-reads a recently touched block, so the cache-hit
// and write-back paths see real traffic.
func digestTrace(seed int64, n int, meanGapMs float64, capacity int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, n)
	now := 0.0
	for i := range tr {
		now += rng.ExpFloat64() * meanGapMs
		r := trace.Request{
			ArrivalMs: now,
			LBA:       rng.Int63n(capacity - 300),
			Sectors:   1 + rng.Intn(64),
			Read:      rng.Intn(100) < 60,
		}
		if i > 8 && rng.Intn(5) == 0 {
			prev := tr[i-1-rng.Intn(8)]
			r.LBA, r.Sectors, r.Read = prev.LBA, prev.Sectors, true
		}
		tr[i] = r
	}
	return tr
}

func short(h [sha256.Size]byte) string { return fmt.Sprintf("%x", h[:6]) }

// driveDigest replays tr into a drive built by disk.New and digests
// everything it exposes: the per-request response times, the per-mode
// power breakdown, the snapshot JSON and the span JSONL.
func driveDigest(t *testing.T, opts Options, tr trace.Trace) string {
	t.Helper()
	sink := &obs.MemorySink{}
	opts.Obs = obs.Options{Sink: sink, Name: "d0"}
	eng, d := newDrive(t, smallModel(), opts)
	resp := obsReplay(eng, d, tr)

	var b []byte
	for _, r := range resp {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r))
	}
	respSum := sha256.Sum256(b)
	b = b[:0]
	pw := d.Power(eng.Now())
	for _, w := range pw.Watts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pw.Elapsed))
	powerSum := sha256.Sum256(b)
	snap, err := obs.MarshalSnapshot(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var spans bytes.Buffer
	if err := sink.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("resp=%s power=%s snap=%s spans=%s", short(respSum),
		short(powerSum), short(sha256.Sum256(snap)), short(sha256.Sum256(spans.Bytes())))
}

// TestConventionalDriveDigests pins the conventional drive bit for bit
// under every dispatch policy and each disk-only path (grown-defect
// fragmentation, write-back destage, zeroed mechanics). The digests
// were recorded from the drive before it shared its dispatch loop with
// the multi-actuator drive; no experiment golden covers write-back or
// the non-SPTF policies, so this test is their oracle.
func TestConventionalDriveDigests(t *testing.T) {
	capacity := func() int64 {
		_, d := newDrive(t, smallModel(), Options{})
		return d.Capacity()
	}()
	policy := func(p sched.Policy) *sched.Config {
		c := DefaultSchedConfig()
		c.Policy = p
		return &c
	}
	defects := func() *defect.Table {
		tab, err := defect.NewTable(capacity, capacity/50)
		if err != nil {
			t.Fatal(err)
		}
		for lba := int64(97); lba < tab.UserSectors(); lba += 509 {
			if err := tab.Grow(lba); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	cases := []struct {
		name string
		opts func() Options
		want string
	}{
		{"fcfs", func() Options { return Options{Sched: policy(sched.FCFS)} },
			"resp=1045faf30ab0 power=5fdf13d78bd6 snap=1955604f3211 spans=bd67ffc36010"},
		{"sstf", func() Options { return Options{Sched: policy(sched.SSTF)} },
			"resp=a85e914ab64b power=2c793a408b1a snap=7d38d6b73883 spans=199f7dffb2cb"},
		{"clook", func() Options { return Options{Sched: policy(sched.CLOOK)} },
			"resp=5b07ff216b1a power=0953271c7489 snap=6dc830b7c14e spans=a5553341d56a"},
		{"sptf", func() Options { return Options{} },
			"resp=73ac6ff79774 power=2117fd142723 snap=c64963216a2b spans=ed1c7a0ff574"},
		{"defects", func() Options { return Options{Defects: defects()} },
			"resp=08b1253d8eaa power=858fdc945be9 snap=ab1c885a793e spans=b2e6b75cbd90"},
		{"writecache", func() Options { return Options{WriteCache: true} },
			"resp=23fbbf2cdd09 power=e28fe58232ce snap=6a0c789b783b spans=623e6d38a0ca"},
		{"zeroed", func() Options { return Options{SeekScale: ZeroedScale, RotScale: ZeroedScale} },
			"resp=5cbb0f087f6b power=aab663a992eb snap=1d941377cf8f spans=07cd79eb9ccf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts()
			tr := digestTrace(5, 1500, 9, capacity-capacity/50)
			if got := driveDigest(t, opts, tr); got != tc.want {
				t.Errorf("digest\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
