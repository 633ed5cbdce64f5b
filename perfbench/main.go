// Command perfbench is the repository's end-to-end benchmark. It starts the
// sensor-metadata server in-process on a durable data directory, configured
// as `smr-server -data-dir` runs it, drives one seeded workload through
// loopback HTTP with a single closed-loop connection, checks every
// response against the System, and prints its metrics as JSON.
//
//	perfbench --workload search|structured|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced replay. README.md describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var opt options
	var traceFlag int
	var commit string
	flag.StringVar(&opt.workload, "workload", "search", "workload: search, structured or ingest")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&opt.root, "dir", ".bench_build/perfbench-data", "directory for the run's data directories (removed at exit)")
	flag.StringVar(&commit, "commit", "unknown", "commit being measured, recorded in the report")
	flag.Parse()
	opt.trace = traceFlag == 1
	opt.setups, opt.sensors = setups, corpusSensors
	if opt.trace {
		opt.setups = 1
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if opt.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	opt.root = filepath.Join(opt.root, fmt.Sprintf("%s-%d-%d", opt.workload, opt.seed, os.Getpid()))
	res, err := run(opt)
	if err != nil {
		fatal(err)
	}
	res.Env = environment(opt, commit, res.Shards)
	detail, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(detail))
	final, err := json.Marshal(res.contract())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(final))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
