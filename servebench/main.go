// Command servebench is the repository's serving benchmark. It seeds a
// campaign from a generated binary journal, serves it from an
// in-process store behind a loopback HTTP listener, drives it with two
// closed-loop clients for a fixed time, checks the outcome against a
// ledger of acknowledged writes, and prints its metrics.
//
//	servebench --workload write-1k --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// and a traced phase of half the time each and reports the per-layer
// metrics and the tracing overhead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The command exits non-zero when any check fails or any request fails.
// See NOTES.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	fs := flag.NewFlagSet("servebench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: write-1k, write-100k or readmix-10k")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build/data", "directory for the run's data directory (on disk, not tmpfs)")
	fs.Parse(os.Args[1:])

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need --workload write-1k|write-100k|readmix-10k, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	o := options{
		w:         w,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		workDir:   *workDir,
		reps:      5,
		repBudget: 2 * time.Second,
		warmup:    time.Second,
		log:       os.Stdout,
	}
	if o.trace {
		// Two phases share the run's time, so a traced run takes about
		// as long as an untraced one.
		o.seconds /= 2
		o.reps, o.repBudget = 1, 0
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: FAILED: %v\n", err)
	}
	if err := printResult(rep); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line. A failed run reports no metrics.
func printResult(rep *report) error {
	metrics := map[string]jsonMetric{}
	if rep.correct {
		for _, m := range rep.metrics {
			metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	data, err := json.Marshal(map[string]any{
		"correct":   rep.correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
