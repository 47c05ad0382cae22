// Command perfbench is divmax's end-to-end benchmark. One invocation
// runs one workload against divmaxd child processes built from the same
// checkout and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload churn_d128 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// generated requests in-process through the layers' public functions
// and reports per-layer metrics instead. "steady" repeats runs over
// several seeds and prints each metric's spread:
//
//	bash perfbench/run.sh steady --workload churn_d128 --runs 10 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the load
// model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Deployment modes of a workload.
const (
	modeWAL     = "wal"     // one durable divmaxd
	modeMem     = "mem"     // one in-memory divmaxd
	modeCluster = "cluster" // a coordinator over two one-shard workers
)

// fsyncPolicy is the WAL policy of the durable workload: divmaxd's
// default.
const fsyncPolicy = "interval"

// workload is one traffic mix. Each runs a set-up, a bulk and a churn
// phase; the phases' weights differ per workload.
type workload struct {
	Name string
	Dim  int
	Mode string
	// Prefill is the number of points every set-up ingests.
	Prefill int
	// Batch is the points per ingest request in set-up and bulk.
	Batch int
	// BulkShare is the share of --seconds spent in the bulk phase; the
	// churn phase gets the rest.
	BulkShare float64
	// ChurnIngest and ChurnDelete size one churn round's writes.
	ChurnIngest, ChurnDelete int
	// ReplayBulk and ReplayRounds size the traced replay's bulk phase
	// (points) and churn phase (rounds); the replay is a fixed schedule,
	// so its counts repeat exactly for a seed.
	ReplayBulk, ReplayRounds int
}

// workloads; README.md gives the reason for each.
var workloads = []workload{
	{Name: "ingest_wal_d8", Dim: 8, Mode: modeWAL, Prefill: 150000, Batch: 2000, BulkShare: 0.7,
		ChurnIngest: 512, ChurnDelete: 16, ReplayBulk: 200000, ReplayRounds: 300},
	{Name: "churn_d128", Dim: 128, Mode: modeMem, Prefill: 20000, Batch: 500, BulkShare: 0.2,
		ChurnIngest: 16, ChurnDelete: 12, ReplayBulk: 4000, ReplayRounds: 40},
	{Name: "cluster_d32", Dim: 32, Mode: modeCluster, Prefill: 40000, Batch: 1000, BulkShare: 0.5,
		ChurnIngest: 64, ChurnDelete: 32, ReplayBulk: 20000, ReplayRounds: 100},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 30, "seconds one run measures")
		trace   = fs.Int("trace", 0, "1 replays the requests in-process and reports per-layer metrics")
		bin     = fs.String("divmaxd", "", "divmaxd binary under test")
		work    = fs.String("work", "", "directory for data, logs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *bin == "" || *work == "" || *seconds <= 0 {
		logf("need --workload (one of ingest_wal_d8, churn_d128, cluster_d32), --divmaxd, --work and --seconds > 0")
		return 2
	}
	runDir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *trace))
	if err := os.RemoveAll(runDir); err != nil {
		logf("%v", err)
		return 1
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	defer stopAll()

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(runDir, w, *seed)
	} else {
		// The closed-loop client needs one core; keeping its scheduler
		// and collector on one leaves the other to the server processes.
		runtime.GOMAXPROCS(1)
		res, err = runE2E(*bin, runDir, w, *seed, *seconds)
	}
	stopAll()
	if err != nil {
		logf("%s: %v", w.Name, err)
		return 1
	}
	// Keep the spans file; the data directories are only scratch.
	entries, _ := os.ReadDir(runDir) // a failed listing only leaves scratch behind
	for _, e := range entries {
		if e.IsDir() {
			_ = os.RemoveAll(filepath.Join(runDir, e.Name())) // scratch; a leftover is harmless
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
