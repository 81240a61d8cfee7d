package main

import (
	"io"
	"math"
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
		err := run("Financial", path, system, 0, 0, 1, 0, "", false, false)
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

// TestEmptyReplayIsAnError: a trace with no requests (an empty file,
// or only a header and comments) is refused with a one-line error that
// names the file, instead of printing an n=0 report whose CDF puts
// every request past 200 ms.
func TestEmptyReplayIsAnError(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.trc")
	headerOnly := filepath.Join(dir, "header.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(headerOnly, []byte("ASU,LBA,Size,Opcode,Timestamp\n# no data\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{empty, headerOnly} {
		for _, system := range []string{"hcsd", "sa4", "md"} {
			err := run("Financial", path, system, 0, 0, 1, 0, "", false, false)
			if err == nil {
				t.Fatalf("-system %s -replay %s: empty replay succeeded", system, path)
			}
			if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, path) {
				t.Errorf("-system %s: error %q, want one line naming %s", system, msg, path)
			}
		}
	}
}

// TestReplayHeaderNamesTrace: the report of a replay names the trace
// file, not the -workload default that only shapes the address remap.
func TestReplayHeaderNamesTrace(t *testing.T) {
	path, err := filepath.Abs(filepath.Join("..", "..", "internal", "trace", "testdata", "sample.spc.csv"))
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return run("Websearch", path, "hcsd", 0, 0, 1, 0, "", false, false)
	})
	first, _, _ := strings.Cut(out, "\n")
	if want := "workload: trace " + path + " ("; !strings.HasPrefix(first, want) {
		t.Fatalf("header %q, want prefix %q", first, want)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		read <- out
	}()
	saved := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-read
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestBadRPMIsAnError: a negative or non-finite -rpm is refused with a
// one-line error before any simulation runs, on every system that
// takes it, instead of silently falling back to 7200 RPM or printing
// NaN results.
func TestBadRPMIsAnError(t *testing.T) {
	for _, rpm := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, system := range []string{"hcsd", "sa4", "raid4"} {
			err := run("Financial", "", system, 100, 0, 1, rpm, "", false, false)
			if err == nil {
				t.Fatalf("-system %s -rpm %v: accepted", system, rpm)
			}
			if msg := err.Error(); strings.Contains(msg, "\n") || !strings.Contains(msg, "-rpm") {
				t.Errorf("-system %s -rpm %v: error %q, want one line naming -rpm", system, rpm, msg)
			}
		}
	}
}
