package main

import (
	"errors"
	"os/exec"
	"runtime"
	"strings"
)

// provenance is recorded with every result: which code ran, where, and
// on what input.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"` // "true", "false" or "unknown"
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Jobs       int    `json:"jobs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

// collectProvenance asks git, from the working directory, for the
// commit and whether the tree differs from it; outside a git checkout,
// or without git, both read "unknown".
func collectProvenance(workload string, seed int64, jobs int) provenance {
	p := provenance{
		Commit: "unknown", Dirty: "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Jobs:       jobs,
		Workload:   workload,
		Seed:       seed,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = "false"
			if len(strings.TrimSpace(string(out))) > 0 {
				p.Dirty = "true"
			}
		}
	}
	return p
}

// baselineOK refuses the two defects that make a recorded baseline
// useless for comparison: a single-core scheduler, which hides every
// parallel effect, and code that no commit identifies.
func (p provenance) baselineOK() error {
	if p.GOMAXPROCS < 2 {
		return errors.New("GOMAXPROCS is 1; a baseline must exercise the parallel scheduler")
	}
	if p.Dirty != "false" {
		return errors.New("the source tree is dirty or its state is unknown; commit first")
	}
	return nil
}
