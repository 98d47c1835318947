// Command simbench is the repository's benchmark: it times end-to-end
// simulations of three workloads and, in its traced mode, breaks one
// simulation down by layer. See README.md.
//
//	go run . --workload read-nogc --seed 1 --seconds 20 --trace 0
//	go run . --workload fmmu-trace --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; progress goes to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// tally adds one simulation to the attempt and failure counts: a
// simulation that fails any check counts all of its requests as failed.
func (r *result) tally(o outcome) {
	r.Attempted += o.requests
	if o.err != nil {
		r.Failed += o.requests
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: read-nogc, spgc-overload or fmmu-trace")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long the untraced mode measures")
	traced := fs.Int("trace", 0, "0 measures end-to-end metrics untraced; 1 runs the traced per-layer breakdown")
	spans := fs.String("spans", ".bench_build/simbench", "with --trace 1, the directory the span dump is written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupSpec(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	var res result
	switch *traced {
	case 0:
		res, err = measure(w, *seed, time.Duration(*seconds)*time.Second, stderr)
	case 1:
		dump := filepath.Join(*spans, "spans-"+w.name+".tsv")
		res, err = breakdown(w, *seed, time.Duration(*seconds)*time.Second, dump, stderr)
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed a check", w.name, res.Failed, res.Attempted)
	}
	return nil
}
