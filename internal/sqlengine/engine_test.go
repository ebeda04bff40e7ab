package sqlengine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestVectorizedPlannerMatrix is the engine's core equivalence guarantee:
// every combination of planner on/off and vectorized on/off (plus parallel
// workers) must produce byte-identical rows AND byte-identical logical
// Cost against the naive reference for the full planner battery.
// SetBatchTuning(1, 1) forces the batch path to engage even on the small
// fixtures, so every kernel in kernels.go is exercised against the
// interpreter on the same queries.
func TestVectorizedPlannerMatrix(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		naive := buildMultiDB(seed, 60)
		naive.SetPlanner(false)

		configs := []struct {
			name string
			db   *Database
		}{
			{"planned row-wise", func() *Database {
				db := buildMultiDB(seed, 60)
				db.SetVectorized(false)
				return db
			}()},
			{"planned vectorized serial", func() *Database {
				db := buildMultiDB(seed, 60)
				db.SetBatchTuning(1, 1)
				db.SetParallelism(1)
				return db
			}()},
			{"planned vectorized parallel", func() *Database {
				db := buildMultiDB(seed, 60)
				db.SetBatchTuning(1, 1)
				db.SetParallelism(4)
				return db
			}()},
			{"unplanned with vec flags set", func() *Database {
				// Planner off must ignore the vectorized machinery entirely:
				// identical to naive by construction, pinned here anyway.
				db := buildMultiDB(seed, 60)
				db.SetPlanner(false)
				db.SetBatchTuning(1, 1)
				db.SetParallelism(4)
				return db
			}()},
		}
		for _, cfg := range configs {
			for _, q := range crossCheckQueries {
				t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.name), func(t *testing.T) {
					crossCheck(t, cfg.db, naive, q)
				})
			}
		}
	}
}

// engineQueries are the shapes that matter at scale: pushdown filter
// kernels, parallel hash-join probes, LEFT JOIN null extension, grouped
// aggregation, fast projection with ORDER BY/LIMIT. All subquery-free so
// the big-input cross-check stays O(n).
var engineQueries = []string{
	"SELECT id FROM f WHERE num > 50 AND flag = 1",
	"SELECT id FROM f WHERE grp IN ('a', 'b') AND num BETWEEN 10 AND 70",
	"SELECT id FROM f WHERE txt LIKE 'x%' AND flag = 0",
	"SELECT id FROM f WHERE grp IS NULL",
	"SELECT COUNT(*) FROM f WHERE num_text < 500000",
	"SELECT f.id, d.label FROM f JOIN d ON f.grp = d.grp WHERE f.num < 20",
	"SELECT f.id, d.label FROM f LEFT JOIN d ON f.grp = d.grp WHERE d.label IS NULL",
	"SELECT f.id, d.label FROM f JOIN d ON f.grp = d.grp AND f.num > d.weight LIMIT 40",
	"SELECT COUNT(*) FROM f JOIN d ON f.grp = d.grp",
	"SELECT f.id FROM f JOIN d ON f.grp = d.grp ORDER BY f.id LIMIT 25",
	"SELECT grp, COUNT(*), SUM(num), AVG(num), MIN(num), MAX(num) FROM f GROUP BY grp ORDER BY grp",
	"SELECT f.grp, d.label, COUNT(*) FROM f JOIN d ON f.grp = d.grp GROUP BY f.grp, d.label ORDER BY 3 DESC, 1",
	"SELECT grp, COUNT(*) FROM f GROUP BY grp HAVING COUNT(*) > 100 ORDER BY 2 DESC, 1",
	"SELECT DISTINCT grp FROM f ORDER BY grp",
	"SELECT id, num, txt FROM f WHERE flag = 1 ORDER BY num DESC, id LIMIT 30",
	"SELECT * FROM f WHERE flag = 0 ORDER BY id LIMIT 10",
	// Top-K on a non-projected column, a tie-heavy key with NULLs under
	// OFFSET, and a full two-value sort.
	"SELECT id FROM f ORDER BY num DESC, id LIMIT 7",
	"SELECT id FROM f ORDER BY grp LIMIT 50 OFFSET 10",
	"SELECT id FROM f ORDER BY flag DESC",
}

// buildEngineDB bulk-loads a database big enough to cross the *default*
// batch and parallel thresholds — no tuning override, so the production
// engagement path is what gets tested.
func buildEngineDB(seed int64, n int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase("engine")
	db.MustExec("CREATE TABLE f (id INTEGER, grp TEXT, num REAL, flag INTEGER, txt TEXT, num_text TEXT)")
	db.MustExec("CREATE TABLE d (grp TEXT, label TEXT, weight INTEGER)")
	groups := []string{"a", "b", "c", "d", "e", "zz"}
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		g := Text(groups[rng.Intn(len(groups))])
		if rng.Intn(10) == 0 {
			g = Null()
		}
		txt := fmt.Sprintf("%c%03d", 'w'+rng.Intn(4), rng.Intn(1000))
		rows = append(rows, []Value{
			Int(int64(i)), g, Float(float64(rng.Intn(1000)) / 10),
			Int(int64(rng.Intn(2))), Text(txt), Text(fmt.Sprintf("%d", rng.Intn(1000000))),
		})
	}
	if _, err := db.BulkInsert("f", rows); err != nil {
		panic(err)
	}
	for i, g := range groups[:4] {
		db.MustExec(fmt.Sprintf("INSERT INTO d VALUES ('%s', 'L%d', %d)", g, i, i*10))
	}
	db.MustExec("INSERT INTO d VALUES (NULL, 'null-group', 99)")
	return db
}

// TestEngineCrossValidationAtScale cross-checks the batch engine against
// the naive executor on inputs large enough that morsel splitting, the
// worker pool, and the columnar scan kernels all engage with production
// thresholds.
func TestEngineCrossValidationAtScale(t *testing.T) {
	n := 12000
	if testing.Short() {
		n = 9000 // still > defMinParRows and > 2 morsels
	}
	vec := buildEngineDB(5, n)
	vec.SetParallelism(4)
	naive := buildEngineDB(5, n)
	naive.SetPlanner(false)
	rowwise := buildEngineDB(5, n)
	rowwise.SetVectorized(false)
	for _, q := range engineQueries {
		crossCheck(t, vec, naive, q)
		crossCheck(t, rowwise, naive, q)
	}
}

// TestResultReportsPhysicalExecution pins the Result.Batches/Workers
// contract: batch execution reports morsels, naive execution reports none,
// and Workers is always at least 1.
func TestResultReportsPhysicalExecution(t *testing.T) {
	vec := buildEngineDB(11, 9000)
	res := vec.MustExec("SELECT COUNT(*) FROM f WHERE num > 50")
	if res.Batches == 0 {
		t.Fatalf("batch scan reported 0 batches (workers=%d)", res.Workers)
	}
	if res.Workers < 1 {
		t.Fatalf("Workers = %d, want >= 1", res.Workers)
	}

	naive := buildEngineDB(11, 9000)
	naive.SetPlanner(false)
	res = naive.MustExec("SELECT COUNT(*) FROM f WHERE num > 50")
	if res.Batches != 0 || res.Workers != 1 {
		t.Fatalf("naive execution reported batches=%d workers=%d, want 0/1", res.Batches, res.Workers)
	}
}

// TestEngineConcurrentQueryHammer runs 8 goroutines of concurrent
// Prepare/Exec against ONE shared database while morsel workers are live.
// Under -race this guards the shared plan cache, the lazily built
// point-lookup indexes and column vectors (all built on first use, so the
// goroutines race to build them), and the process-wide worker-token pool.
// Every result must equal the serially precomputed reference.
func TestEngineConcurrentQueryHammer(t *testing.T) {
	db := buildEngineDB(23, 10000)
	db.SetParallelism(4)

	queries := []string{
		"SELECT COUNT(*) FROM f WHERE num > 50 AND flag = 1",
		"SELECT f.grp, COUNT(*), SUM(f.num) FROM f JOIN d ON f.grp = d.grp GROUP BY f.grp ORDER BY f.grp",
		"SELECT id FROM f WHERE id = 4321",
		"SELECT f.id, d.label FROM f JOIN d ON f.grp = d.grp ORDER BY f.id LIMIT 20",
		"SELECT grp, MIN(num), MAX(num) FROM f GROUP BY grp ORDER BY grp",
		"SELECT COUNT(*) FROM f WHERE txt LIKE 'x%'",
	}
	// Reference pass on an identical database, serial and unplanned.
	ref := buildEngineDB(23, 10000)
	ref.SetPlanner(false)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := ref.Exec(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[i] = r
	}

	iters := 20
	if testing.Short() {
		iters = 6
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(queries)
				st, err := db.Prepare(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d prepare %q: %w", g, queries[qi], err)
					return
				}
				res, err := st.Exec()
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d exec %q: %w", g, queries[qi], err)
					return
				}
				if !rowsIdentical(res.Rows, want[qi].Rows) {
					errCh <- fmt.Errorf("goroutine %d: rows diverged for %q", g, queries[qi])
					return
				}
				if res.Cost != want[qi].Cost {
					errCh <- fmt.Errorf("goroutine %d: Cost %d != %d for %q", g, res.Cost, want[qi].Cost, queries[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
