// Command perfbench is the fortd benchmark: it times the public layer
// calls — parser.Parse, fortd.Compile with and without a warm
// SummaryCache, Runner.Run, Runner.RunReference and
// profile.FromEvents — on three Fortran D workloads, checks every
// result against the sequential reference, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload dgefa --seed 1 --seconds 35 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: compile, dgefa or remap")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 35, "measuring time of the run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 0 and --trace 0 or 1")
		os.Exit(2)
	}
	s, err := specFor(*workload, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// one program in flight on at most two cores, so results compare
	// across hosts with more
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	res, err := measure(s, *seed, time.Duration(*seconds)*time.Second, *traced == 1, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, s, *seed, *traced == 1, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// measure runs one workload in the chosen mode.
func measure(s spec, seed int64, seconds time.Duration, traced bool, log io.Writer) (*result, error) {
	if traced {
		return layers(s, seed, seconds, log)
	}
	return endToEnd(s, seed, seconds, log)
}

// report prints a human-readable table, then the JSON result as the
// last line.
func report(w io.Writer, s spec, seed int64, traced bool, res *result) error {
	mode := "end-to-end"
	if traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d mode=%s gomaxprocs=%d %s\n",
		s.name, seed, mode, runtime.GOMAXPROCS(0), runtime.Version())
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-26s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.samples)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
