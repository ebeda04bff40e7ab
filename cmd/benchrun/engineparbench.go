package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/sqlengine"
)

// The -enginebench mode: the columnar/morsel-parallel execution engine
// measured against its own serial fallbacks, on synthetic financial
// corpora at 100k and 1M rows. Three engine configurations share one
// generated corpus per size (cloned table-by-table, so the rows are
// byte-identical by construction):
//
//   - rowwise: planner on, SetVectorized(false) — the pre-columnar
//     executor, one worker.
//   - vec1:    vectorized kernels, SetParallelism(1) — isolates the
//     batch/kernel win from parallelism.
//   - vecN:    vectorized kernels, SetParallelism(NumCPU) — adds the
//     morsel-parallel fan-out.
//
// The gated claims, recorded as booleans the CI lane asserts with jq:
//
//   - cost_invariant / rows_identical: every configuration (plus the
//     naive planner-off executor at 100k, where nested-loop joins are
//     still tractable) returns byte-identical rows AND byte-identical
//     logical Result.Cost for every benchmark query. The cost model is
//     plan-independent by definition; this is the end-to-end check of
//     that definition on corpora too big for the unit-test fixtures.
//   - vectorized_speedup_ok: vec1 beats rowwise by >= 1.5x on the 1M-row
//     filter scan — the single-core vectorization win, no parallelism.
//   - parallel_scaling_ok: vecN beats vec1 on the 1M-row join or
//     aggregate by a NumCPU-scaled target (4x at >= 8 cores, 0.55x/core
//     below that, trivially satisfied on a single-core runner where
//     vecN degenerates to vec1).
//
// The numeric ratios under "speedups" are additionally gated by
// benchcheck against the committed BENCH_engine.json baseline.

type engineParReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	// Workers is the parallelism of the vecN configuration (NumCPU).
	Workers int    `json:"workers"`
	Seed    uint64 `json:"seed"`
	// Gated soundness booleans (see file comment).
	CostInvariant       bool `json:"cost_invariant"`
	RowsIdentical       bool `json:"rows_identical"`
	VectorizedSpeedupOK bool `json:"vectorized_speedup_ok"`
	ParallelScalingOK   bool `json:"parallel_scaling_ok"`
	// ParallelTarget is the NumCPU-scaled minimum the parallel speedup was
	// held to (0 on single-core runners).
	ParallelTarget float64            `json:"parallel_target"`
	Sizes          []engineParSize    `json:"sizes"`
	Speedups       map[string]float64 `json:"speedups"`
}

type engineParSize struct {
	Label      string              `json:"label"`
	TotalRows  int                 `json:"total_rows"`
	Benchmarks []engineBenchResult `json:"benchmarks"`
}

// engineParQueries are the measured shapes. All are subquery-free,
// planner-optimisable, and dominated by exactly one batch operator, so
// each ratio isolates one engine mechanism.
var engineParQueries = []struct {
	key string
	sql string
}{
	// Filter: two pushed conjuncts over the loan scan — the cmp kernels on
	// an int-typed and an int-typed column, highly selective.
	{"filter", "SELECT COUNT(*) FROM loan WHERE amount > 400000 AND duration >= 48"},
	// Join: fact-to-dimension through the parallel hash-join probe (the
	// probe side is the ~N-row client scan). Big-big joins are impossible
	// under the plan-independent cost model — every configuration charges
	// the full |L|·|R| pair count against the 50M budget — so the
	// dimension side is what internal/synth caps at 128 rows.
	{"join", "SELECT COUNT(*) FROM client JOIN district ON client.district_id = district.district_id WHERE district.A3 = 'south Bohemia'"},
	// Aggregate: morsel-parallel grouping over the client scan, then
	// parallel per-group projection across the district groups.
	{"agg", "SELECT district_id, COUNT(*) FROM client GROUP BY district_id ORDER BY district_id"},
	// Top-K: the index gather over the client scan, keyed by a
	// non-projected column, through the bounded heap.
	{"orderlimit", "SELECT client_id FROM client ORDER BY district_id DESC, client_id LIMIT 10"},
}

var engineParSizes = []struct {
	label string
	total int
	// naiveCheck: also cross-check against the planner-off executor. Off
	// at 1M, where the naive nested-loop join alone would take minutes.
	naiveCheck bool
}{
	{"100k", 100_000, true},
	{"1m", 1_000_000, false},
}

func writeEngineParBench(path string, seed uint64) error {
	corpus := dataset.BuildBIRD(dataset.BIRDOptions{Seed: seed, CleanDev: true})
	src, ok := corpus.DB("financial")
	if !ok {
		return fmt.Errorf("no financial DB in BIRD corpus")
	}

	workers := runtime.NumCPU()
	report := engineParReport{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		Workers:       workers,
		Seed:          seed,
		CostInvariant: true,
		RowsIdentical: true,
		Speedups:      map[string]float64{},
	}

	perSize := map[string]map[string]float64{}
	for _, size := range engineParSizes {
		progress("%s: generating %d rows", size.label, size.total)
		gen, err := generateScaleDB(src, seed, size.total)
		if err != nil {
			return err
		}

		rowwise := cloneEngine(gen.db.Engine)
		rowwise.SetVectorized(false)
		vec1 := cloneEngine(gen.db.Engine)
		vec1.SetParallelism(1)
		vecN := cloneEngine(gen.db.Engine)
		vecN.SetParallelism(workers)

		configs := []struct {
			key string
			eng *sqlengine.Database
		}{{"rowwise", rowwise}, {"vec1", vec1}, {"vecN", vecN}}

		// Soundness pass: every configuration must agree on rows and Cost
		// for every query — against each other always, and against the
		// naive planner-off executor where tractable.
		progress("%s: cross-config equivalence check", size.label)
		var ref *sqlengine.Database
		refName := "rowwise"
		if size.naiveCheck {
			ref = cloneEngine(gen.db.Engine)
			ref.SetPlanner(false)
			refName = "naive"
		} else {
			ref = rowwise
		}
		for _, q := range engineParQueries {
			want, err := ref.Exec(q.sql)
			if err != nil {
				return fmt.Errorf("%s: %s: %s: %v", size.label, refName, q.key, err)
			}
			for _, cfg := range configs {
				got, err := cfg.eng.Exec(q.sql)
				if err != nil {
					return fmt.Errorf("%s: %s: %s: %v", size.label, cfg.key, q.key, err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					report.RowsIdentical = false
					fmt.Fprintf(os.Stderr, "enginebench: %s: %s rows diverge from %s on %q\n", size.label, cfg.key, refName, q.sql)
				}
				if got.Cost != want.Cost {
					report.CostInvariant = false
					fmt.Fprintf(os.Stderr, "enginebench: %s: %s Cost %d != %s %d on %q\n", size.label, cfg.key, got.Cost, refName, want.Cost, q.sql)
				}
			}
		}

		// Timing pass.
		const short = 100 * time.Millisecond
		var results []engineBenchResult
		byName := map[string]float64{}
		for _, q := range engineParQueries {
			for _, cfg := range configs {
				progress("%s: measuring %s_%s", size.label, q.key, cfg.key)
				sql := q.sql
				eng := cfg.eng
				r := measure(q.key+"_"+cfg.key, short, func() {
					if _, err := eng.Exec(sql); err != nil {
						panic(err)
					}
				})
				results = append(results, r)
				byName[r.Name] = r.NsPerOp
			}
		}
		report.Sizes = append(report.Sizes, engineParSize{
			Label:      size.label,
			TotalRows:  gen.totalRows,
			Benchmarks: results,
		})
		perSize[size.label] = byName
	}

	ratio := func(size, num, den string) float64 {
		m := perSize[size]
		if m == nil || m[den] == 0 {
			return 0
		}
		return m[num] / m[den]
	}
	report.Speedups["filter_vectorized_vs_rowwise_100k"] = ratio("100k", "filter_rowwise", "filter_vec1")
	report.Speedups["filter_vectorized_vs_rowwise_1m"] = ratio("1m", "filter_rowwise", "filter_vec1")
	report.Speedups["join_parallel_ncore_vs_1core_1m"] = ratio("1m", "join_vec1", "join_vecN")
	report.Speedups["agg_parallel_ncore_vs_1core_1m"] = ratio("1m", "agg_vec1", "agg_vecN")
	report.Speedups["orderlimit_vectorized_vs_rowwise_1m"] = ratio("1m", "orderlimit_rowwise", "orderlimit_vec1")

	report.VectorizedSpeedupOK = report.Speedups["filter_vectorized_vs_rowwise_1m"] >= 1.5
	report.ParallelTarget = parallelTarget(workers)
	bestPar := report.Speedups["join_parallel_ncore_vs_1core_1m"]
	if s := report.Speedups["agg_parallel_ncore_vs_1core_1m"]; s > bestPar {
		bestPar = s
	}
	report.ParallelScalingOK = bestPar >= report.ParallelTarget

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	for k, v := range report.Speedups {
		fmt.Printf("  %-36s %.2fx\n", k, v)
	}
	fmt.Printf("  cost_invariant=%v rows_identical=%v vectorized_speedup_ok=%v parallel_scaling_ok=%v (target %.2fx at %d cores)\n",
		report.CostInvariant, report.RowsIdentical, report.VectorizedSpeedupOK, report.ParallelScalingOK,
		report.ParallelTarget, workers)
	if !report.CostInvariant || !report.RowsIdentical {
		return fmt.Errorf("enginebench: execution configurations are not equivalent (cost_invariant=%v rows_identical=%v)",
			report.CostInvariant, report.RowsIdentical)
	}
	return nil
}

// parallelTarget is the NumCPU-scaled minimum N-core speedup: the paper
// claim is >= 4x on 8 cores; below 8 cores the bar scales at 0.55x per
// core (parallel efficiency well under the linear ideal, robust to CI
// runner noise), and a single-core runner — where the N-core config IS
// the 1-core config — gates nothing.
func parallelTarget(workers int) float64 {
	switch {
	case workers >= 8:
		return 4.0
	case workers <= 1:
		return 0
	default:
		return 0.55 * float64(workers)
	}
}
