package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// Machine-readable figure output. With -json, every arm a figure measures
// is also recorded here and flushed to BENCH_<fig>.json after the figure
// completes, so plotting scripts and CI trend checks don't have to parse
// the human tables.

// benchArm is one measured configuration of a figure.
type benchArm struct {
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
}

// benchRecord is the BENCH_<fig>.json document: the arms plus the machine
// and source revision they were measured on.
type benchRecord struct {
	Figure     string     `json:"figure"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NProc      int        `json:"nproc"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	Arms       []benchArm `json:"arms"`
}

// buildCommit names the source revision the binary was built from
// ("+modified" when the tree had local changes), or "unknown" when the
// build could not see version control (go run does not stamp it; build
// the binary with go build to record it).
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

var (
	jsonEnabled bool
	jsonArms    []benchArm
)

// recordArm appends one measured arm to the pending record. Figures call it
// unconditionally; it is a no-op without -json.
func recordArm(name string, nsPerOp, rowsPerSec float64) {
	if !jsonEnabled {
		return
	}
	jsonArms = append(jsonArms, benchArm{Name: name, NsPerOp: nsPerOp, RowsPerSec: rowsPerSec})
}

// flushJSON writes BENCH_<fig>.json if -json is set and the figure recorded
// any arms, then resets the pending record for the next figure.
func flushJSON(fig string) error {
	if !jsonEnabled || len(jsonArms) == 0 {
		return nil
	}
	rec := benchRecord{
		Figure:     fig,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		Arms:       jsonArms,
	}
	jsonArms = nil
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal BENCH_%s.json: %w", fig, err)
	}
	name := "BENCH_" + fig + ".json"
	if err := os.WriteFile(name, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	fmt.Printf("wrote %s\n", name)
	return nil
}
