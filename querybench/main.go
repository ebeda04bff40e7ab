// Command querybench is the repository's end-to-end benchmark of POST
// /v1/query. It stands server.New up in-process on a loopback port, drives
// it with a closed loop of two HTTP clients, checks every answer, and
// reports what a user of SEED feels: throughput, latency, error rate,
// execution accuracy and LLM calls per answer. A traced run reports the
// per-layer numbers, timed from the benchmark's own files around calls
// into each layer's public functions.
//
// One workload (the last line of stdout is the JSON result):
//
//	bash querybench/run.sh --workload hit-20k --seed 3 --seconds 10 --trace 0
//
// Every workload, untraced then traced, with the per-layer table:
//
//	bash querybench/run.sh --workload all --seed 1 --seconds 10
//
// Comparing two results saved with --out (refused across CPU counts):
//
//	bash querybench/run.sh --compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "querybench:", err)
		os.Exit(1)
	}
}

// errCheckFailed marks a run whose outputs failed a check; the result is
// still printed, then the command exits non-zero.
var errCheckFailed = errors.New("output checks failed")

func run(args []string) error {
	fs := flag.NewFlagSet("querybench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: bird-cold, hit-20k or all")
	seed := fs.Uint64("seed", 1, "workload seed: orders the request stream")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	out := fs.String("out", "", "also write the stamped result as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("--compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	window := time.Duration(*seconds) * time.Second
	if *name == "all" {
		return runAll(*seed, window, *out)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := runWorkload(w, *seed, window, *trace == 1)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errCheckFailed
	}
	return nil
}

// stamp records the conditions a result was measured under.
type stamp struct {
	Workload     string  `json:"workload"`
	Traced       bool    `json:"traced"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Clients      int     `json:"clients"`
	LLMLatencyMs float64 `json:"llm_latency_ms"`
	FlushPolicy  string  `json:"flush_policy"`
}

func newStamp(w workload, seed uint64, window time.Duration, traced bool) stamp {
	return stamp{
		Workload:     w.name,
		Traced:       traced,
		Seed:         seed,
		Seconds:      window.Seconds(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Clients:      clients,
		LLMLatencyMs: float64(llmLatency) / float64(time.Millisecond),
		FlushPolicy:  flushPolicy,
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of a run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload untraced and then traced, prints the
// end-to-end metrics per workload, the per-layer table and the tracing
// overhead, and fails if any run failed its checks.
func runAll(seed uint64, window time.Duration, out string) error {
	type pair struct{ plain, traced *result }
	var pairs []pair
	combined := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		plain, err := runWorkload(w, seed, window, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		traced, err := runWorkload(w, seed, window, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		pairs = append(pairs, pair{plain, traced})
		for _, r := range []*result{plain, traced} {
			combined.Correct = combined.Correct && r.Correct
			combined.Attempted += r.Attempted
			combined.Failed += r.Failed
		}
		for k, m := range plain.EndToEnd {
			combined.Metrics[w.name+"/"+k] = m
		}
	}
	for _, p := range pairs {
		p.plain.print(os.Stdout)
	}
	for _, p := range pairs {
		p.traced.printLayers(os.Stdout)
		fmt.Printf("  tracing overhead (traced / untraced p50_ms): %.3f\n\n",
			ratio(p.traced.EndToEnd["p50_ms"].Value, p.plain.EndToEnd["p50_ms"].Value))
	}
	if out != "" {
		var all []*result
		for _, p := range pairs {
			all = append(all, p.plain, p.traced)
		}
		if err := writeJSON(out, all); err != nil {
			return err
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !combined.Correct {
		return errCheckFailed
	}
	return nil
}

// compareFiles prints the per-metric ratio new/old of two results saved
// with --out. Results measured on different CPU counts are not
// comparable, and the comparison is refused.
func compareFiles(oldPath, newPath string) error {
	load := func(path string) (*result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Stamp.NumCPU != b.Stamp.NumCPU {
		return fmt.Errorf("refusing to compare: num_cpu %d vs %d", a.Stamp.NumCPU, b.Stamp.NumCPU)
	}
	if a.Stamp.Workload != b.Stamp.Workload || a.Stamp.Traced != b.Stamp.Traced {
		return fmt.Errorf("refusing to compare %s (traced %v) with %s (traced %v)",
			a.Stamp.Workload, a.Stamp.Traced, b.Stamp.Workload, b.Stamp.Traced)
	}
	am, bm := a.reported(), b.reported()
	fmt.Printf("%s on %d CPUs: new / old\n", a.Stamp.Workload, a.Stamp.NumCPU)
	for _, k := range sortedKeys(am) {
		if m, ok := bm[k]; ok {
			fmt.Printf("  %-40s %12.4f %12.4f %8.3f  %s\n", k, am[k].Value, m.Value, ratio(m.Value, am[k].Value), m.Unit)
		}
	}
	return nil
}
