package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// steadiness runs the workload k times on seeds seed, seed+1, … and
// prints, for each end-to-end metric, the median, quartiles and extremes
// of its k values and its interquartile spread as a share of the median,
// next to the bound BENCHMARK.json gives it. A metric is steady when the
// spread stays under a third of its bound. setup_s comes first: it is the
// metric most exposed to the host (exec, design, fsync).
func steadiness(cfg config, run func(config) (*outcome, error), k int) error {
	bounds, err := readBounds(".")
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var order []string
	for i := 0; i < k; i++ {
		c := cfg
		c.seed = cfg.seed + uint64(i)
		o, err := run(c)
		if err != nil {
			return fmt.Errorf("seed %d: %w", c.seed, err)
		}
		if len(o.problems) > 0 || o.failed > 0 {
			return fmt.Errorf("seed %d: check failed: %s", c.seed, strings.Join(o.problems, "; "))
		}
		for _, m := range o.metrics {
			if _, seen := values[m.name]; !seen {
				order = append(order, m.name)
			}
			values[m.name] = append(values[m.name], m.value)
		}
		fmt.Printf("seed %d done\n", c.seed)
	}
	first := func(name string) int {
		switch {
		case name == "setup_s":
			return 0
		case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_per_s"), strings.HasPrefix(name, "cpu_"):
			return 1
		}
		return 2
	}
	sorted := make([]string, 0, len(order))
	for rank := 0; rank < 3; rank++ {
		for _, n := range order {
			if first(n) == rank {
				sorted = append(sorted, n)
			}
		}
	}
	fmt.Printf("%s over %d seeds from %d (%gs runs, trace=%t)\n", cfg.workload, k, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("%-26s %12s %12s %12s %12s %12s %8s %7s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, n := range sorted {
		xs := values[n]
		q1, q3 := quartiles(xs)
		med := median(xs)
		spread := (q3 - q1) / med
		verdict := ""
		if b, ok := bounds[n]; ok {
			verdict = fmt.Sprintf("%7.3f", b)
			if spread > b/3 {
				verdict += "  UNSTEADY"
			}
		}
		fmt.Printf("%-26s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s\n", n, med, q1, q3, quantile(xs, 0), quantile(xs, 1), spread, verdict)
	}
	return nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(root string) (map[string]float64, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
