package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayBeyondCapacityIsAnError replays an SPC-1 trace whose second
// request lies far past every drive's end: each single-timeline system
// must refuse it with a one-line error naming the trace line, not
// panic.
func TestReplayBeyondCapacityIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.csv")
	in := "ASU,LBA,Size,Opcode,Timestamp\n0,100,4096,R,0.0\n0,99999999999,4096,R,0.001\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, system := range []string{"hcsd", "sa4", "md"} {
		err := run("Financial", path, system, 0, 0, 1, 0, "", false, false, false)
		if err == nil {
			t.Fatalf("-system %s: replay past capacity succeeded", system)
		}
		msg := err.Error()
		if strings.Contains(msg, "\n") || !strings.Contains(msg, "trace line 3") ||
			!strings.Contains(msg, "[99999999999,100000000007)") {
			t.Errorf("-system %s: error %q, want one line naming trace line 3 and the request", system, msg)
		}
	}
}
