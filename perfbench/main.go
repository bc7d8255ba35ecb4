// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public surface — proxy.NewOnEngine
// and proxy.Session.Execute, store.Engine/store.Conn (single.Open,
// sharded.Open), sqlparser.Parse and the Stats() snapshots — and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run records spans around each layer call and reports
// the per-layer metrics instead; the spans are written to a file under
// -work when the run ends.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tpcc --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload to run: tpcc, tpcc-plain, olap, olap-sharded, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "directory for data directories (removed after the run) and span files")
	flag.Parse()

	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want all or one of %v)\n", name, workloadNames())
			os.Exit(2)
		}
		res, err := run(runConfig{
			workload:    w,
			scale:       fullScale,
			seed:        *seed,
			seconds:     *seconds,
			traced:      *trace == 1,
			setups:      3,
			setupBudget: 5 * time.Second,
			work:        *work,
			out:         os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(mustJSON(res.summary()))
	}
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload *workload
	scale    scale
	seed     int64
	seconds  float64
	traced   bool
	// setups is the fewest times the workload is set up from an empty
	// directory; setup_s is their median and the last one is measured.
	// While the set-ups so far took less than setupBudget in all, another
	// follows, up to maxSetups times setups, so a cheap set-up is timed
	// often enough to give a steady median.
	setups      int
	setupBudget time.Duration
	// work holds the data directories (removed when the run ends) and
	// the span files of traced runs.
	work string
	out  io.Writer
}

// maxSetups bounds the set-ups of one run, as a multiple of the fewest.
const maxSetups = 3

// sessions is every workload's closed-loop client count. One session
// leaves a CPU for the runtime and the engine's morsel workers: with one
// per CPU, the scheduler's hand-offs set the latency tail (on a 2-vCPU VM,
// tpcc-plain's p99 spread 0.66 between runs with two, 0.03 with one). Two
// sessions scanning one paged table can also crash the engine:
// Table.faultPage (internal/sqldb/bufpool.go) returns the winner's page
// after losing the install race, which a concurrent eviction may already
// have reset to nil, and iterateMorsel dereferences it.
const sessions = 1

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metricValue
}

func (r *result) summary() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// commit names the source revision the binary was built from, when the
// build could see version control.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// runMeta is printed before the result line of every run.
type runMeta struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Sessions   int       `json:"sessions"`
	Loop       string    `json:"loop"`
	Setups     int       `json:"setups"`
	Size       sizeStats `json:"size"`
}

// sizeStats describes the data set one workload runs on.
type sizeStats struct {
	Rows          int     `json:"rows"`
	PlaintextMiB  float64 `json:"plaintext_mib"`
	StoredMiB     float64 `json:"stored_mib"`
	CacheMiB      float64 `json:"cache_mib"`
	Shards        int     `json:"shards"`
	Encrypted     bool    `json:"encrypted"`
	StatementsRun int     `json:"statements_run"`
}

func newMeta(cfg runConfig, setups int) runMeta {
	return runMeta{
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Sessions:   sessions,
		Loop:       "closed",
		Setups:     setups,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
