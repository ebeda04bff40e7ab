package sqlengine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Rows is a materialised query result.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Result is the outcome of executing any statement. Cost counts the rows
// the naive executor touches (scans, join pairs, subquery work); it is the
// deterministic stand-in for execution time used by the VES metric.
//
// Cost is a *logical* measure, independent of the physical plan: when the
// planner substitutes a hash join for a nested loop or pushes a predicate
// below a join, it still charges exactly the rows the naive plan would
// have touched. That plan-independence is what keeps VES — and every
// experiment table derived from it — stable while wall-clock time drops;
// see the contract notes in planner.go.
type Result struct {
	Rows         *Rows
	RowsAffected int64
	Cost         int64
	// Batches and Workers describe the *physical* execution and carry no
	// semantic weight (unlike Cost they may change across engine versions):
	// Batches counts the morsels processed by batch operators (0 = fully
	// row-at-a-time execution) and Workers is the widest parallel fan-out
	// any single operator reached (1 = serial).
	Batches int64
	Workers int
}

// Exec parses and executes a single statement. Parsing and planning go
// through the database's prepared-plan cache, so repeat executions of the
// same statement text skip both.
func (db *Database) Exec(sql string) (*Result, error) {
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

// Query parses and executes a statement that must produce rows.
func (db *Database) Query(sql string) (*Rows, error) {
	res, err := db.Exec(sql)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return nil, fmt.Errorf("sqlengine: statement produced no result rows")
	}
	return res.Rows, nil
}

// MustExec executes sql and panics on error. Intended for test fixtures and
// dataset construction where the SQL is program-generated.
func (db *Database) MustExec(sql string) *Result {
	res, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return res
}

// ExecStmt executes an already-parsed statement. Statements executed this
// way bypass the plan cache and run unplanned; use Prepare to get planned
// execution for a hand-built AST.
func (db *Database) ExecStmt(st Statement) (*Result, error) {
	ec := &execCtx{db: db}
	return ec.execStatement(st)
}

func (ec *execCtx) execStatement(st Statement) (*Result, error) {
	res, err := ec.execStatementInner(st)
	if err != nil {
		return nil, err
	}
	res.Batches = ec.batches
	res.Workers = maxInt(ec.maxPar, 1)
	return res, nil
}

func (ec *execCtx) execStatementInner(st Statement) (*Result, error) {
	db := ec.db
	switch s := st.(type) {
	case *SelectStmt:
		rows, err := ec.execSelect(s, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Cost: ec.cost}, nil
	case *CreateTableStmt:
		if _, err := db.createTable(s); err != nil {
			return nil, err
		}
		return &Result{Cost: ec.cost}, nil
	case *InsertStmt:
		n, err := ec.execInsert(s)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Cost: ec.cost}, nil
	case *UpdateStmt:
		n, err := ec.execUpdate(s)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Cost: ec.cost}, nil
	case *DeleteStmt:
		n, err := ec.execDelete(s)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Cost: ec.cost}, nil
	default:
		return nil, fmt.Errorf("sqlengine: unsupported statement %T", st)
	}
}

// execCtx carries per-execution state: the database, the cost counter and
// the planner's per-SELECT analysis (nil for unplanned execution — the
// executor then behaves exactly like the pre-planner naive engine).
type execCtx struct {
	db    *Database
	cost  int64
	plans map[*SelectStmt]*selectPlan
	// vec enables the columnar batch paths (vector.go, kernels.go,
	// parallel.go). It is only ever true for planned execution, so
	// planner-off remains the pristine serial reference implementation.
	vec bool
	// Physical execution stats, written only by the coordinating
	// goroutine (batchRun): morsels processed, widest worker fan-out.
	batches int64
	maxPar  int
	// Uncorrelated-subquery memo, per statement execution: results keyed
	// by subquery node, plus the cached correlation verdict (see
	// subquery.go).
	subMemo map[*SelectStmt]*Rows
	subCorr map[*SelectStmt]bool
}

// planFor returns the plan for sel, nil when executing unplanned.
func (ec *execCtx) planFor(sel *SelectStmt) *selectPlan { return ec.plans[sel] }

// maxCost bounds runaway queries (e.g. accidental cross joins in predicted
// SQL). Exceeding it aborts execution with an error, which the evaluation
// harness counts as a failed query.
const maxCost = 50_000_000

func (ec *execCtx) charge(n int64) error {
	ec.cost += n
	if ec.cost > maxCost {
		return fmt.Errorf("sqlengine: query exceeded cost budget (%d rows touched)", maxCost)
	}
	return nil
}

// scopeCol names one column visible in a row scope; both fields are
// lower-cased for case-insensitive resolution.
type scopeCol struct {
	table string
	name  string
}

// scope binds a set of visible columns to one row of values, with a parent
// link for correlated subqueries.
type scope struct {
	cols   []scopeCol
	row    []Value
	parent *scope
}

// resolve finds a column by (optionally qualified) name, walking outward
// through parent scopes. Ambiguous unqualified references within one scope
// level are an error, as in SQLite.
func (s *scope) resolve(table, name string) (Value, error) {
	lt, ln := strings.ToLower(table), strings.ToLower(name)
	for cur := s; cur != nil; cur = cur.parent {
		found := -1
		for i, c := range cur.cols {
			if c.name != ln {
				continue
			}
			if lt != "" && c.table != lt {
				continue
			}
			if found >= 0 {
				return Value{}, fmt.Errorf("sqlengine: ambiguous column name %q", name)
			}
			found = i
		}
		if found >= 0 {
			return cur.row[found], nil
		}
	}
	if table != "" {
		return Value{}, fmt.Errorf("sqlengine: no such column: %s.%s", table, name)
	}
	return Value{}, fmt.Errorf("sqlengine: no such column: %s", name)
}

// rowSet is an intermediate relation during FROM evaluation. logical is
// the cardinality the *naive* executor's relation would have at this point
// in the pipeline: it differs from len(rows) only when predicate pushdown
// filtered a scan, and it is what join charges are computed from so that
// Cost stays plan-independent.
type rowSet struct {
	cols    []scopeCol
	rows    [][]Value
	logical int
}

// --- SELECT execution ---

func (ec *execCtx) execSelect(sel *SelectStmt, outer *scope) (*Rows, error) {
	if sel.Compound == CompoundNone {
		return ec.execSelectSimple(sel, outer)
	}
	// Compound: evaluate each core without the shared tail, then combine.
	head, err := ec.execSelectCoreOnly(sel, outer)
	if err != nil {
		return nil, err
	}
	combined := head
	for cur := sel; cur.Compound != CompoundNone; cur = cur.Next {
		next, err := ec.execSelectCoreOnly(cur.Next, outer)
		if err != nil {
			return nil, err
		}
		if len(next.Columns) != len(combined.Columns) {
			return nil, fmt.Errorf("sqlengine: compound SELECT column count mismatch (%d vs %d)", len(combined.Columns), len(next.Columns))
		}
		combined = combineRows(combined, next, cur.Compound)
	}
	// Apply the tail (ORDER BY / LIMIT) over the combined output.
	out := &selOutput{columns: combined.Columns, data: combined.Data}
	if err := ec.finishSelect(sel, out, outer, orderKeysFor(sel, out.columns, nil)); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// execSelectCoreOnly executes one arm of a compound select, ignoring the
// ORDER BY/LIMIT tail which belongs to the whole compound. The clone shares
// the arm's FROM/WHERE, so the arm's plan (keyed by the original pointer)
// still applies.
func (ec *execCtx) execSelectCoreOnly(sel *SelectStmt, outer *scope) (*Rows, error) {
	clone := *sel
	clone.Compound = CompoundNone
	clone.Next = nil
	clone.OrderBy = nil
	clone.Limit = nil
	clone.Offset = nil
	return ec.execSelectPlanned(&clone, outer, ec.planFor(sel))
}

func combineRows(a, b *Rows, op CompoundOp) *Rows {
	var buf []byte
	keyOf := func(r []Value) string {
		buf = buf[:0]
		for _, v := range r {
			buf = v.AppendKey(buf)
			buf = append(buf, '\x00')
		}
		return string(buf)
	}
	out := &Rows{Columns: a.Columns}
	switch op {
	case CompoundUnionAll:
		out.Data = append(append(out.Data, a.Data...), b.Data...)
	case CompoundUnion:
		seen := make(map[string]bool)
		for _, r := range append(append([][]Value{}, a.Data...), b.Data...) {
			k := keyOf(r)
			if !seen[k] {
				seen[k] = true
				out.Data = append(out.Data, r)
			}
		}
	case CompoundExcept:
		drop := make(map[string]bool)
		for _, r := range b.Data {
			drop[keyOf(r)] = true
		}
		seen := make(map[string]bool)
		for _, r := range a.Data {
			k := keyOf(r)
			if !drop[k] && !seen[k] {
				seen[k] = true
				out.Data = append(out.Data, r)
			}
		}
	case CompoundIntersect:
		keep := make(map[string]bool)
		for _, r := range b.Data {
			keep[keyOf(r)] = true
		}
		seen := make(map[string]bool)
		for _, r := range a.Data {
			k := keyOf(r)
			if keep[k] && !seen[k] {
				seen[k] = true
				out.Data = append(out.Data, r)
			}
		}
	}
	return out
}

// selOutput accumulates projected rows together with what ORDER BY needs
// to key them after projection: a per-row evaluation environment for
// grouped output or when some term is an expression, otherwise the source
// row each output row was projected from. A compound select's combined rows
// carry neither.
type selOutput struct {
	columns []string
	data    [][]Value
	envs    []*evalEnv // parallel to data when set: the row's environment
	src     [][]Value  // parallel to data when set: the row's source row
}

func (o *selOutput) add(vals []Value, env *evalEnv) {
	o.data = append(o.data, vals)
	o.envs = append(o.envs, env)
}

func (o *selOutput) rows() *Rows { return &Rows{Columns: o.columns, Data: o.data} }

func (ec *execCtx) execSelectSimple(sel *SelectStmt, outer *scope) (*Rows, error) {
	return ec.execSelectPlanned(sel, outer, ec.planFor(sel))
}

func (ec *execCtx) execSelectPlanned(sel *SelectStmt, outer *scope, pl *selectPlan) (*Rows, error) {
	// 1. FROM (with pushdown placement when the plan allows it)
	src, fp, err := ec.execFrom(sel, outer, pl)
	if err != nil {
		return nil, err
	}
	// 2. WHERE. The scope and environment are reused across rows: filter
	// environments are never retained (unlike projection environments,
	// which ORDER BY may consult later).
	var filtered [][]Value
	if fp != nil {
		// Pushdown ran: pushed conjuncts were applied during the scans and
		// every conjunct is safe-total, so a row passes the original WHERE
		// iff every residual conjunct is true on it.
		switch {
		case len(fp.residual) == 0:
			filtered = src.rows
		case ec.useBatch(len(src.rows)):
			filtered, err = ec.filterIntermediate(src.cols, src.rows, fp.residual, outer)
			if err != nil {
				return nil, err
			}
		default:
			sc := &scope{cols: src.cols, parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			for _, row := range src.rows {
				sc.row = row
				pass := true
				for _, e := range fp.residual {
					v, err := env.eval(e)
					if err != nil {
						return nil, err
					}
					if t, known := v.Truth(); !t || !known {
						pass = false
						break
					}
				}
				if pass {
					filtered = append(filtered, row)
				}
			}
		}
	} else if sel.Where != nil {
		// Without pushdown the WHERE can still run as a batch filter when
		// the plan proves every conjunct safe-total: the AND-tree passes
		// iff every conjunct is true, and short-circuit differences are
		// unobservable on pure total expressions.
		if pl != nil && pl.whereSafe && len(pl.where) > 0 && ec.useBatch(len(src.rows)) {
			exprs := make([]Expr, len(pl.where))
			for i, c := range pl.where {
				exprs[i] = c.expr
			}
			filtered, err = ec.filterIntermediate(src.cols, src.rows, exprs, outer)
			if err != nil {
				return nil, err
			}
		} else {
			sc := &scope{cols: src.cols, parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			for _, row := range src.rows {
				sc.row = row
				v, err := env.eval(sel.Where)
				if err != nil {
					return nil, err
				}
				if t, known := v.Truth(); t && known {
					filtered = append(filtered, row)
				}
			}
		}
	} else {
		filtered = src.rows
	}

	grouped := len(sel.GroupBy) > 0 || anyAggregate(sel)
	out := &selOutput{columns: projectionNames(sel, src)}
	keys := orderKeysFor(sel, out.columns, src)

	switch {
	case grouped:
		if err := ec.projectGrouped(sel, src, filtered, outer, out, pl); err != nil {
			return nil, err
		}
	case orderNeedsEnv(keys):
		for _, row := range filtered {
			sc := &scope{cols: src.cols, row: row, parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			vals, err := ec.projectRow(sel, src, env)
			if err != nil {
				return nil, err
			}
			out.add(vals, env)
		}
	default:
		// No ORDER BY term evaluates in a row environment, so none is
		// retained: every output row is keyed from its source row, and
		// projection reuses one scope like the WHERE loop does.
		if ixs, ok := ec.planFastProjection(sel, src); ok && ec.useBatch(len(filtered)) {
			ec.projectIndexed(filtered, ixs, out)
		} else {
			sc := &scope{cols: src.cols, parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			for _, row := range filtered {
				sc.row = row
				vals, err := ec.projectRow(sel, src, env)
				if err != nil {
					return nil, err
				}
				out.data = append(out.data, vals)
			}
		}
		out.src = filtered
	}

	if sel.Distinct {
		dedupeOutput(out)
	}
	if err := ec.finishSelect(sel, out, outer, keys); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// finishSelect applies ORDER BY, LIMIT and OFFSET to an accumulated output.
// Every row's sort keys are computed before LIMIT and OFFSET are evaluated,
// so ORDER BY errors surface first and for every row, LIMIT or not. The
// rows are then picked as a permutation: a bounded heap when LIMIT cuts the
// output short, otherwise a sort, both tie-broken by output position so the
// order is exactly that of a stable sort.
func (ec *execCtx) finishSelect(sel *SelectStmt, out *selOutput, outer *scope, keys []orderKey) error {
	var flat []Value
	if len(keys) > 0 {
		var err error
		if flat, err = orderKeyValues(keys, out); err != nil {
			return err
		}
	}
	n := int64(len(out.data))
	offset, end := int64(0), n
	if sel.Limit != nil {
		env := &evalEnv{ec: ec, sc: &scope{parent: outer}}
		lv, err := env.eval(sel.Limit)
		if err != nil {
			return err
		}
		limit := lv.AsInt()
		if sel.Offset != nil {
			ov, err := env.eval(sel.Offset)
			if err != nil {
				return err
			}
			offset = ov.AsInt()
		}
		offset = min(max(offset, 0), n)
		if limit >= 0 && limit < n-offset {
			end = offset + limit
		}
	}
	if len(keys) == 0 {
		out.data = out.data[offset:end]
	} else {
		perm := topK(int(n), int(end), orderCmp(keys, flat))
		data := make([][]Value, 0, end-offset)
		for _, p := range perm[offset:] {
			data = append(data, out.data[p])
		}
		out.data = data
	}
	// Nothing reads the per-row keying state after the tail.
	out.envs, out.src = nil, nil
	return nil
}

// orderKey is one ORDER BY term resolved once per statement, in this
// precedence: an ordinal, an output column name or alias, then a column
// reference that resolves to exactly one source column, and otherwise an
// expression evaluated in each row's saved environment.
type orderKey struct {
	out, src int   // output / source column index, -1 when not that class
	expr     Expr  // set for the expression class
	err      error // an out-of-range ordinal; reported only if a row exists
	desc     bool
}

// orderKeysFor resolves sel's ORDER BY terms against its output columns and
// source relation (nil for a compound select, whose rows have no source).
func orderKeysFor(sel *SelectStmt, columns []string, src *rowSet) []orderKey {
	if len(sel.OrderBy) == 0 {
		return nil
	}
	keys := make([]orderKey, len(sel.OrderBy))
	for j, ob := range sel.OrderBy {
		k := orderKey{out: -1, src: -1, desc: ob.Desc}
		switch e := ob.Expr.(type) {
		case *Literal:
			if e.Val.Kind == KindInt {
				if idx := int(e.Val.I) - 1; idx >= 0 && idx < len(columns) {
					k.out = idx
				} else {
					k.err = fmt.Errorf("sqlengine: ORDER BY ordinal %d out of range", e.Val.I)
				}
			}
		case *ColumnRef:
			if e.Table == "" {
				k.out = slices.IndexFunc(columns, func(c string) bool { return strings.EqualFold(c, e.Name) })
			}
			if k.out < 0 && src != nil && e.Name != "*" {
				if idx, n := resolveCols(src.cols, e.Table, e.Name); n == 1 {
					k.src = idx
				}
			}
		}
		if k.out < 0 && k.src < 0 && k.err == nil {
			k.expr = ob.Expr
		}
		keys[j] = k
	}
	return keys
}

// orderNeedsEnv reports whether some ORDER BY term must be evaluated in a
// per-row environment.
func orderNeedsEnv(keys []orderKey) bool {
	return slices.ContainsFunc(keys, func(k orderKey) bool { return k.expr != nil })
}

// orderKeyValues computes every row's sort keys, row by row in output order
// (so the first error is the one a row-at-a-time evaluation meets), into
// one flat slice: row i's keys are flat[i*len(keys):(i+1)*len(keys)].
func orderKeyValues(keys []orderKey, out *selOutput) ([]Value, error) {
	flat := make([]Value, len(out.data)*len(keys))
	for i := range out.data {
		for j := range keys {
			k := &keys[j]
			var v Value
			switch {
			case k.err != nil:
				return nil, k.err
			case k.out >= 0:
				v = out.data[i][k.out]
			case k.src >= 0 && out.src != nil:
				v = out.src[i][k.src]
			case k.src >= 0:
				v = out.envs[i].sc.row[k.src]
			default:
				if out.envs == nil {
					return nil, fmt.Errorf("sqlengine: ORDER BY expression %s must name an output column here", k.expr.SQL())
				}
				var err error
				if v, err = out.envs[i].eval(k.expr); err != nil {
					return nil, err
				}
			}
			flat[i*len(keys)+j] = v
		}
	}
	return flat, nil
}

// orderCmp compares two output rows by their flat sort keys, breaking ties
// by output position: a total order, so any sort under it is stable.
func orderCmp(keys []orderKey, flat []Value) func(a, b int32) int {
	m := len(keys)
	return func(a, b int32) int {
		ka, kb := flat[int(a)*m:int(a)*m+m], flat[int(b)*m:int(b)*m+m]
		for j := range keys {
			if c := Compare(ka[j], kb[j]); c != 0 {
				if keys[j].desc {
					return -c
				}
				return c
			}
		}
		return cmp.Compare(a, b)
	}
}

// topK returns the positions of the first k of n rows under the total order
// compare, in that order. When k < n a bounded max-heap holds the best k
// seen so far, so most rows cost one comparison against its root;
// otherwise the whole permutation is sorted.
func topK(n, k int, compare func(a, b int32) int) []int32 {
	h := make([]int32, min(k, n))
	for i := range h {
		h[i] = int32(i)
	}
	if k < n && k > 0 {
		// h[0] is the worst row kept: sift a replaced root down below
		// every child that orders after it.
		siftDown := func(p int) {
			for c := 2*p + 1; c < k; p, c = c, 2*c+1 {
				if c+1 < k && compare(h[c+1], h[c]) > 0 {
					c++
				}
				if compare(h[p], h[c]) >= 0 {
					return
				}
				h[p], h[c] = h[c], h[p]
			}
		}
		for p := k/2 - 1; p >= 0; p-- {
			siftDown(p)
		}
		for i := int32(k); int(i) < n; i++ {
			if compare(i, h[0]) < 0 {
				h[0] = i
				siftDown(0)
			}
		}
	}
	slices.SortFunc(h, compare)
	return h
}

// dedupeOutput drops output rows equal to an earlier one, keeping each
// survivor's environment or source row alongside it.
func dedupeOutput(out *selOutput) {
	seen := make(map[string]bool, len(out.data))
	var data, src [][]Value
	var envs []*evalEnv
	var buf []byte
	for i, r := range out.data {
		buf = buf[:0]
		for _, v := range r {
			buf = v.AppendKey(buf)
			buf = append(buf, '\x00')
		}
		k := string(buf)
		if seen[k] {
			continue
		}
		seen[k] = true
		data = append(data, r)
		if out.envs != nil {
			envs = append(envs, out.envs[i])
		}
		if out.src != nil {
			src = append(src, out.src[i])
		}
	}
	out.data, out.envs, out.src = data, envs, src
}

// projectionNames computes output column names for the select list.
func projectionNames(sel *SelectStmt, src *rowSet) []string {
	var names []string
	for _, item := range sel.Columns {
		switch {
		case item.Star && item.StarTable == "":
			for _, c := range src.cols {
				names = append(names, c.name)
			}
		case item.Star:
			lt := strings.ToLower(item.StarTable)
			for _, c := range src.cols {
				if c.table == lt {
					names = append(names, c.name)
				}
			}
		case item.Alias != "":
			names = append(names, item.Alias)
		default:
			if cr, ok := item.Expr.(*ColumnRef); ok {
				names = append(names, cr.Name)
			} else {
				names = append(names, item.Expr.SQL())
			}
		}
	}
	return names
}

// projectRow evaluates the select list for one (non-grouped) row.
func (ec *execCtx) projectRow(sel *SelectStmt, src *rowSet, env *evalEnv) ([]Value, error) {
	var vals []Value
	for _, item := range sel.Columns {
		switch {
		case item.Star && item.StarTable == "":
			vals = append(vals, env.sc.row...)
		case item.Star:
			lt := strings.ToLower(item.StarTable)
			matched := false
			for i, c := range src.cols {
				if c.table == lt {
					vals = append(vals, env.sc.row[i])
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("sqlengine: no such table: %s", item.StarTable)
			}
		default:
			v, err := env.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
	}
	return vals, nil
}

// rowGroup is one GROUP BY partition: the representative scope (first row
// in input order) and every member row's scope.
type rowGroup struct {
	rep  *scope
	rows []*scope
}

// projectGrouped partitions rows into groups, applies HAVING, and projects
// the select list with aggregate support. With a plan that proves the
// GROUP BY keys safe-total, the partitioning runs morsel-parallel: workers
// build per-morsel group fragments in first-seen order, and the
// coordinator merges fragments in morsel order, which reproduces the
// serial first-seen group order exactly. When HAVING and every projection
// item are aggregate-safe as well (aggExprSafeTotal), the per-group
// evaluation also fans out, each group still computed serially over its
// rows in input order — float aggregate accumulation order is preserved,
// so results stay byte-identical.
func (ec *execCtx) projectGrouped(sel *SelectStmt, src *rowSet, rows [][]Value, outer *scope, out *selOutput, pl *selectPlan) error {
	var groups []*rowGroup
	if len(sel.GroupBy) == 0 {
		// Single implicit group (possibly empty: COUNT over no rows). The
		// rows slice stays non-nil so aggregate evaluation recognises the
		// grouped context even for the empty group.
		g := &rowGroup{rows: make([]*scope, 0, len(rows))}
		for _, row := range rows {
			sc := &scope{cols: src.cols, row: row, parent: outer}
			if g.rep == nil {
				g.rep = sc
			}
			g.rows = append(g.rows, sc)
		}
		if g.rep == nil {
			g.rep = &scope{cols: src.cols, row: make([]Value, len(src.cols)), parent: outer}
		}
		groups = append(groups, g)
	} else if pl != nil && pl.groupBySafe && ec.useBatch(len(rows)) {
		var err error
		groups, err = ec.groupMorsels(sel, src, rows, outer)
		if err != nil {
			return err
		}
	} else {
		idx := make(map[string]*rowGroup)
		var order []string
		var kb []byte
		for _, row := range rows {
			sc := &scope{cols: src.cols, row: row, parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			kb = kb[:0]
			for _, ge := range sel.GroupBy {
				v, err := env.eval(ge)
				if err != nil {
					return err
				}
				kb = v.AppendKey(kb)
				kb = append(kb, '\x00')
			}
			k := string(kb)
			g, ok := idx[k]
			if !ok {
				g = &rowGroup{rep: sc}
				idx[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, sc)
		}
		for _, k := range order {
			groups = append(groups, idx[k])
		}
	}

	if pl != nil && pl.aggProjSafe && ec.vec && len(groups) > 1 && len(rows) >= ec.minParRows() {
		return ec.projectGroupsParallel(sel, src, groups, out)
	}
	for _, g := range groups {
		env := &evalEnv{ec: ec, sc: g.rep, group: g.rows}
		if sel.Having != nil {
			hv, err := env.eval(sel.Having)
			if err != nil {
				return err
			}
			if t, known := hv.Truth(); !t || !known {
				continue
			}
		}
		vals, err := ec.projectRow(sel, src, env)
		if err != nil {
			return err
		}
		out.add(vals, env)
	}
	return nil
}

// groupMorsels is the parallel GROUP BY partitioning phase: per-morsel
// group fragments built by workers, merged by the coordinator in morsel
// order so first-seen group order matches the serial loop.
func (ec *execCtx) groupMorsels(sel *SelectStmt, src *rowSet, rows [][]Value, outer *scope) ([]*rowGroup, error) {
	type fragment struct {
		order []string
		m     map[string]*rowGroup
		err   error
	}
	nm := morselCount(len(rows))
	frags := make([]fragment, nm)
	ec.batchRun(nm, len(rows), nil, func(w, m int) {
		lo, hi := morselBounds(m, len(rows))
		fr := fragment{m: make(map[string]*rowGroup)}
		var kb []byte
		for i := lo; i < hi; i++ {
			sc := &scope{cols: src.cols, row: rows[i], parent: outer}
			env := &evalEnv{ec: ec, sc: sc}
			kb = kb[:0]
			for _, ge := range sel.GroupBy {
				v, err := env.eval(ge)
				if err != nil {
					fr.err = err
					frags[m] = fr
					return
				}
				kb = v.AppendKey(kb)
				kb = append(kb, '\x00')
			}
			k := string(kb)
			g, ok := fr.m[k]
			if !ok {
				g = &rowGroup{rep: sc}
				fr.m[k] = g
				fr.order = append(fr.order, k)
			}
			g.rows = append(g.rows, sc)
		}
		frags[m] = fr
	})
	idx := make(map[string]*rowGroup)
	var groups []*rowGroup
	for _, fr := range frags {
		if fr.err != nil {
			return nil, fr.err
		}
		for _, k := range fr.order {
			part := fr.m[k]
			g, ok := idx[k]
			if !ok {
				idx[k] = part
				groups = append(groups, part)
				continue
			}
			g.rows = append(g.rows, part.rows...)
		}
	}
	return groups, nil
}

// projectGroupsParallel evaluates HAVING and the projection per group with
// one group per work unit, emitting surviving groups in group order. Only
// called when every evaluated expression is aggregate-safe (no subqueries,
// no possible cost charge; errors are row-independent), so worker-local
// environments are sound and the first error in group order matches the
// serial loop's error.
func (ec *execCtx) projectGroupsParallel(sel *SelectStmt, src *rowSet, groups []*rowGroup, out *selOutput) error {
	vals := make([][]Value, len(groups))
	keep := make([]bool, len(groups))
	envs := make([]*evalEnv, len(groups))
	errs := make([]error, len(groups))
	totalRows := 0
	for _, g := range groups {
		totalRows += len(g.rows)
	}
	ec.batchRun(len(groups), totalRows, nil, func(w, gi int) {
		g := groups[gi]
		env := &evalEnv{ec: ec, sc: g.rep, group: g.rows}
		if sel.Having != nil {
			hv, err := env.eval(sel.Having)
			if err != nil {
				errs[gi] = err
				return
			}
			if t, known := hv.Truth(); !t || !known {
				return
			}
		}
		v, err := ec.projectRow(sel, src, env)
		if err != nil {
			errs[gi] = err
			return
		}
		vals[gi], envs[gi], keep[gi] = v, env, true
	})
	for gi := range groups {
		if errs[gi] != nil {
			return errs[gi]
		}
		if keep[gi] {
			out.add(vals[gi], envs[gi])
		}
	}
	return nil
}

// planFastProjection decides whether the select list can run as a pure
// index gather — every item a star or a uniquely resolving column
// reference. The caller has already checked that no ORDER BY term needs a
// row environment, since gathered rows carry none. Any resolution failure
// falls back to the interpreted path so the naive error surfaces
// verbatim.
func (ec *execCtx) planFastProjection(sel *SelectStmt, src *rowSet) ([]int, bool) {
	if !ec.vec {
		return nil, false
	}
	var ixs []int
	for _, item := range sel.Columns {
		switch {
		case item.Star && item.StarTable == "":
			for i := range src.cols {
				ixs = append(ixs, i)
			}
		case item.Star:
			lt := strings.ToLower(item.StarTable)
			matched := false
			for i, c := range src.cols {
				if c.table == lt {
					ixs = append(ixs, i)
					matched = true
				}
			}
			if !matched {
				return nil, false
			}
		default:
			cr, ok := item.Expr.(*ColumnRef)
			if !ok || cr.Name == "*" {
				return nil, false
			}
			idx, n := resolveCols(src.cols, cr.Table, cr.Name)
			if n != 1 {
				return nil, false
			}
			ixs = append(ixs, idx)
		}
	}
	return ixs, true
}

// projectIndexed gathers the projected columns per row, morsel-parallel,
// with no environments (nothing downstream needs them).
func (ec *execCtx) projectIndexed(rows [][]Value, ixs []int, out *selOutput) {
	nm := morselCount(len(rows))
	outs := make([][][]Value, nm)
	ec.batchRun(nm, len(rows), nil, func(w, m int) {
		lo, hi := morselBounds(m, len(rows))
		part := make([][]Value, 0, hi-lo)
		for i := lo; i < hi; i++ {
			row := rows[i]
			vals := make([]Value, len(ixs))
			for k, ix := range ixs {
				vals[k] = row[ix]
			}
			part = append(part, vals)
		}
		outs[m] = part
	})
	for _, part := range outs {
		out.data = append(out.data, part...)
	}
}

// --- FROM evaluation ---

func (ec *execCtx) execFrom(sel *SelectStmt, outer *scope, pl *selectPlan) (*rowSet, *fromPlan, error) {
	items := sel.From
	if len(items) == 0 {
		// SELECT without FROM: a single empty row.
		return &rowSet{rows: [][]Value{{}}, logical: 1}, nil, nil
	}
	fp := ec.planFrom(pl, sel, outer)
	pushedFor := func(i int) []conjunct {
		if fp == nil {
			return nil
		}
		return fp.pushed[i]
	}
	acc, err := ec.execFromItem(&items[0], outer, pushedFor(0))
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i < len(items); i++ {
		right, err := ec.execFromItem(&items[i], outer, pushedFor(i))
		if err != nil {
			return nil, nil, err
		}
		var ja *joinAnalysis
		if pl != nil && pl.joins != nil {
			ja = pl.joins[i]
		}
		acc, err = ec.join(acc, right, items[i].Join, items[i].On, outer, ja)
		if err != nil {
			return nil, nil, err
		}
	}
	return acc, fp, nil
}

// execFromItem materialises one FROM item. pushed holds the WHERE conjuncts
// the planner placed at this scan (always nil for subquery items and for
// unplanned execution). The scan is charged at full table size whether or
// not pushdown filters it — that is the naive executor's charge.
func (ec *execCtx) execFromItem(item *FromItem, outer *scope, pushed []conjunct) (*rowSet, error) {
	name := strings.ToLower(item.Name())
	if item.Sub != nil {
		sub, err := ec.execSelect(item.Sub, outer)
		if err != nil {
			return nil, err
		}
		rs := &rowSet{rows: sub.Data, logical: len(sub.Data)}
		for _, c := range sub.Columns {
			rs.cols = append(rs.cols, scopeCol{table: name, name: strings.ToLower(c)})
		}
		return rs, nil
	}
	t, ok := ec.db.Table(item.Table)
	if !ok {
		return nil, fmt.Errorf("sqlengine: no such table: %s", item.Table)
	}
	if err := ec.charge(int64(len(t.Rows))); err != nil {
		return nil, err
	}
	rs := &rowSet{logical: len(t.Rows)}
	for _, c := range t.Columns {
		rs.cols = append(rs.cols, scopeCol{table: name, name: strings.ToLower(c.Name)})
	}
	if len(pushed) == 0 {
		rs.rows = t.Rows
		return rs, nil
	}

	// Point-lookup fast path: the first pushed `col = literal` conjunct
	// narrows the scan to the column's equality-index bucket. Buckets hold
	// ascending row positions, so emission order matches a full scan; every
	// candidate still passes through the full pushed-conjunct filter below,
	// which re-verifies the indexed equality with real `=` semantics.
	rows := t.Rows
	narrowed := false
	for _, c := range pushed {
		if c.eqLit == nil {
			continue
		}
		col, n := resolveCols(rs.cols, c.eqLit.col.Table, c.eqLit.col.Name)
		if n != 1 {
			continue
		}
		if c.eqLit.lit.IsNull() {
			// `col = NULL` is never true: the scan yields nothing.
			return rs, nil
		}
		bucket := t.eqLookup(col, string(coarseKey(nil, c.eqLit.lit)))
		rows = make([][]Value, len(bucket))
		for i, ri := range bucket {
			rows[i] = t.Rows[ri]
		}
		narrowed = true
		break
	}

	// Vectorized scan filter: compile the pushed conjuncts into kernels
	// over the table's columnar shadow and evaluate morsel-parallel. Only
	// for full scans — an index-narrowed candidate list no longer aligns
	// positionally with the column vectors and is small anyway.
	if !narrowed && ec.useBatch(len(t.Rows)) {
		filtered, err := ec.filterScan(t, rs.cols, pushed, outer)
		if err != nil {
			return nil, err
		}
		rs.rows = filtered
		return rs, nil
	}

	sc := &scope{cols: rs.cols, parent: outer}
	env := &evalEnv{ec: ec, sc: sc}
	out := make([][]Value, 0, len(rows))
	for _, row := range rows {
		sc.row = row
		pass := true
		for _, c := range pushed {
			v, err := env.eval(c.expr)
			if err != nil {
				return nil, err
			}
			if t, known := v.Truth(); !t || !known {
				pass = false
				break
			}
		}
		if pass {
			out = append(out, row)
		}
	}
	rs.rows = out
	return rs, nil
}

// join combines two relations. The logical pair count |L|·|R| is charged up
// front — exactly the naive nested loop's total, and computed from the
// inputs' logical cardinalities so that pushdown-filtered scans do not
// change the charge. With a usable plan the join runs as a hash join;
// otherwise the nested loop below runs with one reusable pair buffer and
// environment (fresh slices are allocated only for emitted rows).
func (ec *execCtx) join(left, right *rowSet, jt JoinType, on Expr, outer *scope, ja *joinAnalysis) (*rowSet, error) {
	if err := ec.charge(int64(left.logical) * int64(right.logical)); err != nil {
		return nil, err
	}
	if on != nil && ja != nil && ja.safe {
		if equis, residual, ok := resolveHashJoin(left, right, ja, outer); ok {
			return ec.hashJoin(left, right, jt, equis, residual, outer)
		}
	}
	cols := make([]scopeCol, 0, len(left.cols)+len(right.cols))
	cols = append(cols, left.cols...)
	cols = append(cols, right.cols...)
	out := &rowSet{cols: cols}
	nullRight := make([]Value, len(right.cols))
	buf := make([]Value, len(cols))
	sc := &scope{cols: cols, row: buf, parent: outer}
	env := &evalEnv{ec: ec, sc: sc}
	for _, lr := range left.rows {
		matched := false
		copy(buf, lr)
		for _, rr := range right.rows {
			copy(buf[len(left.cols):], rr)
			if on != nil {
				v, err := env.eval(on)
				if err != nil {
					return nil, err
				}
				if t, known := v.Truth(); !t || !known {
					continue
				}
			}
			matched = true
			row := make([]Value, len(cols))
			copy(row, buf)
			out.rows = append(out.rows, row)
		}
		if jt == JoinLeft && !matched {
			row := make([]Value, 0, len(cols))
			row = append(row, lr...)
			row = append(row, nullRight...)
			out.rows = append(out.rows, row)
		}
	}
	out.logical = len(out.rows)
	return out, nil
}

// --- DML execution ---

func (ec *execCtx) execInsert(ins *InsertStmt) (int64, error) {
	t, ok := ec.db.Table(ins.Table)
	if !ok {
		return 0, fmt.Errorf("sqlengine: no such table: %s", ins.Table)
	}
	env := &evalEnv{ec: ec, sc: &scope{}}
	var n int64
	for _, rowExprs := range ins.Rows {
		vals := make([]Value, len(rowExprs))
		for i, e := range rowExprs {
			v, err := env.eval(e)
			if err != nil {
				return n, err
			}
			vals[i] = v
		}
		if err := t.insertRow(ins.Columns, vals); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (ec *execCtx) execUpdate(up *UpdateStmt) (int64, error) {
	t, ok := ec.db.Table(up.Table)
	if !ok {
		return 0, fmt.Errorf("sqlengine: no such table: %s", up.Table)
	}
	cols := make([]scopeCol, len(t.Columns))
	lt := strings.ToLower(t.Name)
	for i, c := range t.Columns {
		cols[i] = scopeCol{table: lt, name: strings.ToLower(c.Name)}
	}
	var n int64
	sc := &scope{cols: cols}
	env := &evalEnv{ec: ec, sc: sc}
	for ri, row := range t.Rows {
		if err := ec.charge(1); err != nil {
			return n, err
		}
		sc.row = row
		if up.Where != nil {
			v, err := env.eval(up.Where)
			if err != nil {
				return n, err
			}
			if truth, known := v.Truth(); !truth || !known {
				continue
			}
		}
		newRow := make([]Value, len(row))
		copy(newRow, row)
		for _, set := range up.Set {
			idx := t.ColumnIndex(set.Column)
			if idx < 0 {
				return n, fmt.Errorf("sqlengine: no such column: %s", set.Column)
			}
			v, err := env.eval(set.Value)
			if err != nil {
				return n, err
			}
			newRow[idx] = coerce(v, t.Columns[idx].Type)
		}
		t.Rows[ri] = newRow
		n++
	}
	if n > 0 {
		t.invalidateIndexes()
	}
	return n, nil
}

func (ec *execCtx) execDelete(del *DeleteStmt) (int64, error) {
	t, ok := ec.db.Table(del.Table)
	if !ok {
		return 0, fmt.Errorf("sqlengine: no such table: %s", del.Table)
	}
	cols := make([]scopeCol, len(t.Columns))
	lt := strings.ToLower(t.Name)
	for i, c := range t.Columns {
		cols[i] = scopeCol{table: lt, name: strings.ToLower(c.Name)}
	}
	var kept [][]Value
	var n int64
	sc := &scope{cols: cols}
	env := &evalEnv{ec: ec, sc: sc}
	for _, row := range t.Rows {
		if err := ec.charge(1); err != nil {
			return n, err
		}
		remove := true
		if del.Where != nil {
			sc.row = row
			v, err := env.eval(del.Where)
			if err != nil {
				return n, err
			}
			truth, known := v.Truth()
			remove = truth && known
		}
		if remove {
			n++
		} else {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	t.invalidateIndexes()
	return n, nil
}

// anyAggregate reports whether the select list, HAVING or ORDER BY of sel
// contains an aggregate function call.
func anyAggregate(sel *SelectStmt) bool {
	for _, item := range sel.Columns {
		if item.Expr != nil && exprHasAggregate(item.Expr) {
			return true
		}
	}
	if sel.Having != nil && exprHasAggregate(sel.Having) {
		return true
	}
	for _, ob := range sel.OrderBy {
		if exprHasAggregate(ob.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		if isAggregateCall(x) {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *Unary:
		return exprHasAggregate(x.X)
	case *CaseExpr:
		if x.Operand != nil && exprHasAggregate(x.Operand) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasAggregate(w.When) || exprHasAggregate(w.Then) {
				return true
			}
		}
		if x.Else != nil && exprHasAggregate(x.Else) {
			return true
		}
	case *BetweenExpr:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Lo) || exprHasAggregate(x.Hi)
	case *LikeExpr:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Pattern)
	case *IsNullExpr:
		return exprHasAggregate(x.X)
	case *InExpr:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, e := range x.List {
			if exprHasAggregate(e) {
				return true
			}
		}
	case *CastExpr:
		return exprHasAggregate(x.X)
	}
	return false
}

// isAggregateCall reports whether fc is an aggregate invocation. MIN/MAX
// with more than one argument are SQLite's scalar variants.
func isAggregateCall(fc *FuncCall) bool {
	switch fc.Name {
	case "COUNT", "SUM", "AVG", "TOTAL", "GROUP_CONCAT":
		return true
	case "MIN", "MAX":
		return fc.Star || len(fc.Args) == 1
	}
	return false
}
