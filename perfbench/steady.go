package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// steadyMain runs one workload several times, each on its own seed, and
// prints each metric's median, quartiles and spreads across the runs,
// so the spread is shown rather than asserted. The interquartile range
// over the median is what the end-to-end bounds in BENCHMARK.json are
// judged against.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		runs    = fs.Int("runs", 10, "number of runs")
		seed0   = fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
		seconds = fs.Float64("seconds", 30, "seconds one run measures")
		trace   = fs.Int("trace", 0, "passed through to every run")
		bin     = fs.String("divmaxd", "", "divmaxd binary under test")
		work    = fs.String("work", "", "directory for data, logs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		logf("%v", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := range *runs {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace), "--divmaxd", *bin, "--work", *work)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			logf("run with seed %d: %v", seed, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			logf("run with seed %d: %v", seed, err)
			return 1
		}
		if !res.Correct {
			logf("run with seed %d: incorrect output", seed)
			return 1
		}
		fmt.Printf("seed %d: %s\n", seed, bytes.TrimSpace(lastLine(out)))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	bounds := readBounds("BENCHMARK.json")
	fmt.Printf("\nworkload %s, %d runs of %gs, trace %d\n", *name, *runs, *seconds, *trace)
	fmt.Printf("nproc %d, GOMAXPROCS %d (servers; the end-to-end client runs on 1), %s, commit %s, fsync %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), fsyncPolicy)
	fmt.Printf("%-28s %-11s %14s %14s %14s %9s %9s %7s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		xs := values[k]
		med := median(xs)
		q1, q3 := quartiles(xs)
		lo, hi := minMax(xs)
		bound := "-"
		if b, ok := bounds[k]; ok {
			bound = fmt.Sprint(b)
		}
		fmt.Printf("%-28s %-11s %14.6g %14.6g %14.6g %9.4f %9.4f %7s\n", k, units[k], med, q1, q3, (q3-q1)/med, (hi-lo)/med, bound)
	}
	return 0
}

// lastResult parses a run's last line of standard output.
func lastResult(out []byte) (result, error) {
	var res result
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return res, fmt.Errorf("parsing result: %w", err)
	}
	return res, nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func minMax(xs []float64) (lo, hi float64) {
	s := sortedCopy(xs)
	return s[0], s[len(s)-1]
}

// readBounds returns the end-to-end bounds of BENCHMARK.json, or none
// when the file is absent or unreadable.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// commit names the checkout's commit when it is a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}
