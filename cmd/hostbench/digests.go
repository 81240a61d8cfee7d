package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/experiments"
)

// refdigests.json maps each workload, input size and recorded seed to
// the SHA-256 of its simulated results at the commit that recorded it.
// A change that only makes the host faster must reproduce every digest;
// a change that alters simulated results re-records them with -record.
//
//go:embed refdigests.json
var refDigestsJSON []byte

var referenceDigests = sync.OnceValue(func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(refDigestsJSON, &m); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: refdigests.json:", err)
	}
	return m
})

// recordDigests computes the reference digest of every simulated
// workload for every recorded seed and writes them to path. The array64
// digest is taken from experiments.LPRAID itself, and the benchmark's
// own construction of that scenario must reproduce it.
func recordDigests(path, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	out := map[string]string{}
	for seed := int64(1); seed <= recordedSeeds; seed++ {
		pr, err := paperOnce(seed, nil)
		if err != nil {
			return err
		}
		if len(pr.pass.bad) > 0 {
			return fmt.Errorf("paper seed %d: %v", seed, pr.pass.bad)
		}
		out[paperKey(seed)] = pr.digest

		spc := filepath.Join(workdir, fmt.Sprintf("record-seed%d.spc.csv", seed))
		if err := writeSPC(spc, seed); err != nil {
			return err
		}
		rp, err := replayOnce(spc, nil, false)
		os.Remove(spc)
		if err != nil {
			return err
		}
		out[replayKey(seed)] = rp.digest

		cfg := experiments.Config{Requests: array64Requests, Seed: seed, Observe: experiments.Observe{Metrics: true}}
		lr, err := experiments.LPRAID(cfg, experiments.LPRAIDOpts{
			Drives: array64Drives, Actuators: array64Actuators, Workers: runtime.NumCPU(),
		})
		if err != nil {
			return err
		}
		want, err := lpraidDigest(lr)
		if err != nil {
			return err
		}
		ap, err := array64Once(seed, runtime.NumCPU(), nil)
		if err != nil {
			return err
		}
		if ap.digest != want {
			return fmt.Errorf("array64 seed %d: benchmark construction digest %s, experiments.LPRAID %s", seed, ap.digest, want)
		}
		out[array64Key(seed)] = want
		fmt.Fprintf(os.Stderr, "recorded seed %d\n", seed)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
