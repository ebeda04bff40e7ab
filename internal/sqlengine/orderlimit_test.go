package sqlengine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// orderRows is the row count of the oracle table; several cases below
// place LIMIT/OFFSET exactly on or next to it.
const orderRows = 257

// buildOrderDB loads a seeded table built to stress ORDER BY: tie holds a
// handful of values plus NULLs, mix holds INT, REAL, TEXT and NULL in one
// column (INTEGER affinity keeps non-integral reals and non-numeric text),
// and grp partitions the rows with a NULL group.
func buildOrderDB(seed int64) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase("order")
	db.MustExec("CREATE TABLE o (id INTEGER, tie INTEGER, mix INTEGER, num REAL, grp TEXT)")
	groups := []string{"a", "b", "c", "d"}
	rows := make([][]Value, 0, orderRows)
	for i := 0; i < orderRows; i++ {
		tie := Int(int64(rng.Intn(4)))
		if rng.Intn(6) == 0 {
			tie = Null()
		}
		var mix Value
		switch rng.Intn(5) {
		case 0:
			mix = Null()
		case 1:
			mix = Int(int64(rng.Intn(8)))
		case 2:
			mix = Float(float64(rng.Intn(16)) / 2)
		default:
			mix = Text(fmt.Sprintf("t%d", rng.Intn(6)))
		}
		grp := Text(groups[rng.Intn(len(groups))])
		if rng.Intn(7) == 0 {
			grp = Null()
		}
		rows = append(rows, []Value{Int(int64(i)), tie, mix, Float(float64(rng.Intn(50)) / 4), grp})
	}
	if _, err := db.BulkInsert("o", rows); err != nil {
		panic(err)
	}
	return db
}

// stableSortOracle is the reference ORDER BY/LIMIT: rows carry their
// output columns first and then one sort key per term; it dedupes on the
// output columns (keeping the first) when distinct, stable-sorts on the
// keys, applies OFFSET/LIMIT (limit < 0 means none) and drops the keys.
func stableSortOracle(rows [][]Value, ncol int, desc []bool, distinct bool, offset, limit int64) [][]Value {
	if distinct {
		seen := map[string]bool{}
		var kept [][]Value
		for _, r := range rows {
			k := fmt.Sprintf("%#v", r[:ncol])
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	rows = append([][]Value(nil), rows...)
	sort.SliceStable(rows, func(a, b int) bool {
		for j, d := range desc {
			c := Compare(rows[a][ncol+j], rows[b][ncol+j])
			if c == 0 {
				continue
			}
			if d {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	n := int64(len(rows))
	offset = min(max(offset, 0), n)
	end := n
	if limit >= 0 && limit < n-offset {
		end = offset + limit
	}
	out := make([][]Value, 0, end-offset)
	for _, r := range rows[offset:end] {
		out = append(out, r[:ncol])
	}
	return out
}

// orderCase is one statement under test. Its expected rows come from base
// (the same rows unordered and unlimited: output columns, then one column
// per sort key) through stableSortOracle, or from ref when base is empty.
// wantErr, when set, is the exact error every mode must return.
type orderCase struct {
	sql           string
	base          string
	desc          []bool
	distinct      bool
	offset, limit int64
	ref           func(t *testing.T, db *Database) [][]Value
	wantErr       string
}

func orderCases() []orderCase {
	return []orderCase{
		// Ties without a tiebreaker, NULL keys, mixed INT/REAL/TEXT keys.
		{sql: "SELECT id FROM o ORDER BY tie", base: "SELECT id, tie FROM o", desc: []bool{false}, limit: -1},
		{sql: "SELECT id FROM o ORDER BY tie DESC LIMIT 40", base: "SELECT id, tie FROM o", desc: []bool{true}, limit: 40},
		{sql: "SELECT id, mix FROM o ORDER BY mix LIMIT 60", base: "SELECT id, mix, mix FROM o", desc: []bool{false}, limit: 60},
		{sql: "SELECT id, mix FROM o ORDER BY mix DESC", base: "SELECT id, mix, mix FROM o", desc: []bool{true}, limit: -1},
		// Multi-key ASC/DESC, with and without a unique last key.
		{sql: "SELECT id FROM o ORDER BY tie DESC, num, id DESC LIMIT 17 OFFSET 3", base: "SELECT id, tie, num, id FROM o", desc: []bool{true, false, true}, offset: 3, limit: 17},
		{sql: "SELECT id, num FROM o ORDER BY grp, mix DESC", base: "SELECT id, num, grp, mix FROM o", desc: []bool{false, true}, limit: -1},
		// LIMIT/OFFSET edges: 0, negative, past the end, OFFSET at or past
		// the end, an expression, and offset+limit on and one short of n.
		{sql: "SELECT id FROM o ORDER BY num LIMIT 0", base: "SELECT id, num FROM o", desc: []bool{false}, limit: 0},
		{sql: "SELECT id FROM o ORDER BY num DESC LIMIT -1 OFFSET 5", base: "SELECT id, num FROM o", desc: []bool{true}, offset: 5, limit: -1},
		{sql: "SELECT id FROM o ORDER BY num LIMIT 100000", base: "SELECT id, num FROM o", desc: []bool{false}, limit: 100000},
		{sql: "SELECT id FROM o ORDER BY num LIMIT 5 OFFSET 257", base: "SELECT id, num FROM o", desc: []bool{false}, offset: 257, limit: 5},
		{sql: "SELECT id FROM o ORDER BY num LIMIT 5 OFFSET 100000", base: "SELECT id, num FROM o", desc: []bool{false}, offset: 100000, limit: 5},
		{sql: "SELECT id FROM o ORDER BY tie LIMIT 2+3 OFFSET 1", base: "SELECT id, tie FROM o", desc: []bool{false}, offset: 1, limit: 5},
		{sql: "SELECT id FROM o ORDER BY tie LIMIT 250 OFFSET 7", base: "SELECT id, tie FROM o", desc: []bool{false}, offset: 7, limit: 250},
		{sql: "SELECT id FROM o ORDER BY tie LIMIT 249 OFFSET 7", base: "SELECT id, tie FROM o", desc: []bool{false}, offset: 7, limit: 249},
		// Term classes: ordinal, alias, non-projected and qualified source
		// columns, expressions.
		{sql: "SELECT tie, id FROM o ORDER BY 1 DESC, 2 LIMIT 12", base: "SELECT tie, id, tie, id FROM o", desc: []bool{true, false}, limit: 12},
		{sql: "SELECT id AS ident, num AS n FROM o ORDER BY n, ident DESC LIMIT 9", base: "SELECT id, num, num, id FROM o", desc: []bool{false, true}, limit: 9},
		{sql: "SELECT id FROM o ORDER BY num DESC, id LIMIT 7", base: "SELECT id, num, id FROM o", desc: []bool{true, false}, limit: 7},
		{sql: "SELECT o.id FROM o WHERE num > 3 ORDER BY o.tie, o.id DESC LIMIT 11", base: "SELECT id, tie, id FROM o WHERE num > 3", desc: []bool{false, true}, limit: 11},
		{sql: "SELECT id FROM o ORDER BY num * -1 + id % 3, id LIMIT 13", base: "SELECT id, num * -1 + id % 3, id FROM o", desc: []bool{false, false}, limit: 13},
		{sql: "SELECT id, tie FROM o ORDER BY tie, LENGTH(grp) DESC, num", base: "SELECT id, tie, tie, LENGTH(grp), num FROM o", desc: []bool{false, true, false}, limit: -1},
		// DISTINCT (also keyed by a non-projected column of each first row).
		{sql: "SELECT DISTINCT tie FROM o ORDER BY tie DESC", base: "SELECT tie, tie FROM o", desc: []bool{true}, distinct: true, limit: -1},
		{sql: "SELECT DISTINCT grp FROM o ORDER BY num DESC, id LIMIT 4", base: "SELECT grp, num, id FROM o", desc: []bool{true, false}, distinct: true, limit: 4},
		// GROUP BY: ordinal and aggregate keys, and a source column read
		// from each group's first row.
		{sql: "SELECT grp, COUNT(*) FROM o GROUP BY grp ORDER BY 2 DESC, grp LIMIT 3", base: "SELECT grp, COUNT(*), COUNT(*), grp FROM o GROUP BY grp", desc: []bool{true, false}, limit: 3},
		{sql: "SELECT grp, SUM(num) FROM o GROUP BY grp ORDER BY id DESC", base: "SELECT grp, SUM(num), id FROM o GROUP BY grp", desc: []bool{true}, limit: -1},
		{sql: "SELECT tie, COUNT(*) FROM o GROUP BY tie ORDER BY MAX(num), tie", base: "SELECT tie, COUNT(*), MAX(num), tie FROM o GROUP BY tie", desc: []bool{false, false}, limit: -1},
		// A compound select orders the combined rows.
		{
			sql:  "SELECT id, tie FROM o WHERE num < 4 UNION ALL SELECT id, tie FROM o WHERE num > 8 ORDER BY 2, 1 DESC LIMIT 25",
			base: "SELECT id, tie, tie, id FROM o WHERE num < 4 UNION ALL SELECT id, tie, tie, id FROM o WHERE num > 8",
			desc: []bool{false, true}, limit: 25,
		},
		// A correlated subquery with its own top-1.
		{
			sql: "SELECT id, (SELECT p.id FROM o AS p WHERE p.grp = o.grp ORDER BY p.num DESC, p.id LIMIT 1) FROM o ORDER BY id DESC LIMIT 40",
			ref: correlatedTop1Ref,
		},
		// Errors: the first failing term of the first row, as a row-at-a-time
		// evaluation meets it.
		{sql: "SELECT id FROM o ORDER BY nope", wantErr: "sqlengine: no such column: nope"},
		{sql: "SELECT id FROM o ORDER BY id, o.nope LIMIT 1", wantErr: "sqlengine: no such column: o.nope"},
		{sql: "SELECT id FROM o ORDER BY 7", wantErr: "sqlengine: ORDER BY ordinal 7 out of range"},
		{sql: "SELECT id FROM o ORDER BY num, 0 LIMIT 3", wantErr: "sqlengine: ORDER BY ordinal 0 out of range"},
		{sql: "SELECT a.id FROM o AS a JOIN o AS b ON a.id = b.id ORDER BY num LIMIT 2", wantErr: `sqlengine: ambiguous column name "num"`},
		{sql: "SELECT id FROM o UNION ALL SELECT id FROM o ORDER BY num", wantErr: "sqlengine: ORDER BY expression num must name an output column here"},
		// An out-of-range ordinal over no rows is never evaluated.
		{sql: "SELECT id FROM o WHERE id < 0 ORDER BY 9", base: "SELECT id FROM o WHERE id < 0", limit: -1},
	}
}

// correlatedTop1Ref computes, for every row, the id of the row in its
// (non-NULL) group with the highest num and then the lowest id, and orders
// the result by id descending with LIMIT 40.
func correlatedTop1Ref(t *testing.T, db *Database) [][]Value {
	all, err := db.Query("SELECT id, grp, id, num FROM o")
	if err != nil {
		t.Fatal(err)
	}
	var outer [][]Value
	for _, r := range all.Data {
		var members [][]Value
		for _, p := range all.Data {
			if !r[1].IsNull() && !p[1].IsNull() && Compare(p[1], r[1]) == 0 {
				members = append(members, []Value{p[0], p[3], p[0]})
			}
		}
		top := Null()
		if best := stableSortOracle(members, 1, []bool{true, false}, false, 0, 1); len(best) == 1 {
			top = best[0][0]
		}
		outer = append(outer, []Value{r[0], top, r[0]})
	}
	return stableSortOracle(outer, 2, []bool{true}, false, 0, 40)
}

// TestOrderLimitMatchesStableSortOracle checks ORDER BY/LIMIT/OFFSET in
// every execution mode against stableSortOracle, an independent reference
// (the executors all share the same ORDER BY tail, so cross-checking them
// against each other cannot catch an ordering bug there). Rows must equal
// the oracle's and Cost must equal the naive executor's.
func TestOrderLimitMatchesStableSortOracle(t *testing.T) {
	modes := []struct {
		name string
		set  func(db *Database)
	}{
		{"naive", func(db *Database) { db.SetPlanner(false) }},
		{"planned", func(db *Database) { db.SetVectorized(false) }},
		{"vectorized", func(db *Database) { db.SetBatchTuning(1, 1); db.SetParallelism(1) }},
		{"parallel", func(db *Database) { db.SetBatchTuning(1, 1); db.SetParallelism(4) }},
	}
	for _, seed := range []int64{1, 2, 3} {
		dbs := make([]*Database, len(modes))
		for i, m := range modes {
			dbs[i] = buildOrderDB(seed)
			m.set(dbs[i])
		}
		ref := buildOrderDB(seed)
		ref.SetPlanner(false)
		for ci, c := range orderCases() {
			var want [][]Value
			switch {
			case c.wantErr != "":
			case c.ref != nil:
				want = c.ref(t, ref)
			default:
				base, err := ref.Query(c.base)
				if err != nil {
					t.Fatalf("base %q: %v", c.base, err)
				}
				want = stableSortOracle(base.Data, len(base.Columns)-len(c.desc), c.desc, c.distinct, c.offset, c.limit)
			}
			var naiveCost int64
			for i, m := range modes {
				t.Run(fmt.Sprintf("seed%d/case%d/%s", seed, ci, m.name), func(t *testing.T) {
					res, err := dbs[i].Exec(c.sql)
					if c.wantErr != "" {
						if err == nil || err.Error() != c.wantErr {
							t.Fatalf("%q: error %v, want %q", c.sql, err, c.wantErr)
						}
						return
					}
					if err != nil {
						t.Fatalf("%q: %v", c.sql, err)
					}
					if !rowsIdentical(&Rows{Columns: res.Rows.Columns, Data: want}, res.Rows) {
						t.Fatalf("%q: rows differ from the oracle:\ngot  %v\nwant %v", c.sql, res.Rows.Data, want)
					}
					if i == 0 {
						naiveCost = res.Cost
					} else if res.Cost != naiveCost {
						t.Fatalf("%q: Cost %d, naive %d", c.sql, res.Cost, naiveCost)
					}
				})
			}
		}
	}
}
