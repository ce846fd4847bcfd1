// Command fairbench is the repository's benchmark. It measures what a
// user of otfair pays for archival repair: the server-side cost per record
// of fairserved, run as a child process on loopback and loaded in a closed
// loop over one connection, and the cost of library joint repair. Every
// run also checks that the repaired records are exactly what the library
// produces in-process, and that repair still quenches S|U dependence.
//
//	bash fairbench/run.sh --workload serve-labelled-csv --seed 1 --seconds 15 --trace 0
//
// run.sh builds fairserved and this program from the checkout first. See
// fairbench/README.md for the workloads, the metrics and the layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	serverBin string
	workDir   string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	name  string
	value float64
	unit  string
}

// outcome is what one run of a workload produced.
type outcome struct {
	attempted, failed int
	problems          []string // correctness failures; any one fails the run
	metrics           []metricValue
	notes             []string // human-readable lines printed before the result
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metricValue{name, value, unit})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problem(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"serve-labelled-csv": func(c config) (*outcome, error) { return runServe(c, labelledCSV) },
	"serve-blind-ndjson": func(c config) (*outcome, error) { return runServe(c, blindNDJSON) },
	"joint-3d":           runJoint,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input of the run is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and the layer ledger instead of end-to-end metrics")
	steady := flag.Int("steady", 0, "run the workload this many times on successive seeds and print each end-to-end metric's spread next to its bound")
	flag.StringVar(&cfg.serverBin, "server", "", "fairserved binary to exec (run.sh builds it)")
	work := flag.String("work", ".bench_build", "directory for server stores and spools; a per-run subdirectory is made and removed")
	flag.Parse()
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	if cfg.workDir, err = filepath.Abs(dir); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(cfg.workDir)

	if *steady > 0 {
		err = steadiness(cfg, run, *steady)
	} else {
		err = runOnce(cfg, run)
	}
	if err != nil {
		os.RemoveAll(cfg.workDir)
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fairbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runOnce runs the workload and prints its notes, a metric table and, as
// the last line of standard output, the JSON result.
func runOnce(cfg config, run func(config) (*outcome, error)) error {
	o, err := run(cfg)
	if err != nil {
		return err
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for _, m := range o.metrics {
		fmt.Printf("  %-44s %16.6g %s\n", m.name, m.value, m.unit)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(o.metrics)),
	}
	for _, m := range o.metrics {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
