package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/sqlengine"
)

// A run sets the workload up at least setupMinRuns times and until the
// set-ups took setupMinTotal, at most setupMaxRuns times; setup_s is their
// median and the last set-up is the one measured. bird-cold sets up in
// about 0.15 s, so its median is taken over more set-ups than hit-20k's.
const (
	setupMinRuns  = 3
	setupMaxRuns  = 15
	setupMinTotal = 2 * time.Second
)

// setupClients is the concurrency of the set-up passes. They are not
// measured load: more clients overlap their modeled LLM waits.
const setupClients = 8

// fixture is a set-up workload: corpus, running server and the state the
// per-layer replays need.
type fixture struct {
	w      workload
	corpus *corpus
	sim    *llm.Simulator
	timed  *timedClient // traced runs only
	st     *stack
	dir    string // durable stores (bird-cold); removed on close
	// teach holds the set-up teaching pass (hit-20k only).
	teach []outcome
}

func (f *fixture) close() {
	f.st.close()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// setup builds the corpus, starts the server and warms it: every session
// is built and, on hit-20k, the canonical questions are served once to
// teach the memory and their paraphrases once to fill the evidence cache.
func setup(ctx context.Context, w workload, traced bool) (*fixture, error) {
	c, err := buildCorpus(w)
	if err != nil {
		return nil, err
	}
	f := &fixture{w: w, corpus: c, sim: llm.NewSimulator()}
	f.sim.SetLatency(llmLatency)
	var client llm.Client = f.sim
	if traced {
		f.timed = &timedClient{inner: f.sim}
		client = f.timed
	}
	if w.cold() {
		if f.dir, err = os.MkdirTemp("", "querybench-stores-"); err != nil {
			return nil, err
		}
	}
	if f.st, err = startServer(c.c, client, traced, f.dir); err != nil {
		if f.dir != "" {
			os.RemoveAll(f.dir)
		}
		return nil, err
	}
	// A question outside the corpus answers 404 after building the
	// database's session, without touching memory or the evidence cache.
	var warm []request
	for _, db := range sortedKeys(c.c.DBs) {
		warm = append(warm, asRequests([]dataset.Example{{DB: db, Question: "warm-up"}})...)
	}
	if _, err := drive(ctx, f.st.base, warm, 1, time.Hour, true); err != nil {
		f.close()
		return nil, err
	}
	if !w.cold() {
		if f.teach, err = drive(ctx, f.st.base, asRequests(c.teach), setupClients, time.Hour, true); err != nil {
			f.close()
			return nil, err
		}
		if _, err := drive(ctx, f.st.base, asRequests(c.c.Test), setupClients, time.Hour, true); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// response is one decoded /v1/query outcome.
type response struct {
	outcome
	ex dataset.Example
	qr api.QueryResponse // zero unless status is 200
	// bad marks a 200 response whose body did not decode.
	bad bool
}

func (r *response) ok() bool { return r.status == http.StatusOK }

// attributedMicros sums the server's per-phase timing of the response.
func (r *response) attributedMicros() int64 {
	t := r.qr.Timing
	return t.MemoryMicros + t.EvidenceMicros + t.GenerateMicros + t.PrepareMicros + t.ExecuteMicros
}

// sources are the response classes, in report order.
var sources = []string{api.SourceMemory, api.SourceCache, api.SourceGenerated}

// result is one run's report.
type result struct {
	Stamp     stamp `json:"stamp"`
	Correct   bool  `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	// Non2xx counts responses with a status outside 2xx, Unprocessable
	// the 422 answers among them (the generated SQL does not parse or
	// execute: an answer scored wrong by ex, not a failed request), and
	// CheckFailures the 200 responses whose output failed a check.
	Non2xx        int      `json:"non_2xx"`
	Unprocessable int      `json:"unprocessable"`
	CheckFailures int      `json:"check_failures"`
	Problems      []string `json:"problems,omitempty"`
	ErrorRate     float64  `json:"error_rate"`
	// EndToEnd holds the end-to-end metrics, Classes the latency split by
	// response source, Layers the per-layer metrics (traced runs only).
	EndToEnd map[string]metric      `json:"end_to_end"`
	Classes  map[string]classReport `json:"classes"`
	Layers   map[string]metric      `json:"layers,omitempty"`
}

// classReport is one response class's latency: the median and the
// highest tail percentile with at least ten samples beyond it.
type classReport struct {
	N                 int     `json:"n"`
	P50Ms             float64 `json:"p50_ms"`
	TailPct           float64 `json:"tail_pct"`
	TailMs            float64 `json:"tail_ms"`
	UnattributedShare float64 `json:"unattributed_share"`
}

// line is the machine-readable result: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *result) line() resultLine {
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.reported()}
}

func (r *result) reported() map[string]metric {
	if r.Stamp.Traced {
		return r.Layers
	}
	return r.EndToEnd
}

// runWorkload sets the workload up several times (setup_s is the
// median), measures one window on the last set-up, checks every answer,
// and, traced, replays the per-layer measurements. hit-20k windows replay
// whole passes over the request set. qps, p50_ms and p99_ms are taken
// over the whole window, so each stretch of a run counts by its length
// when the speed of a shared machine drifts during the window.
func runWorkload(w workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	var setups []float64
	var total time.Duration
	var f *fixture
	for i := 0; i < setupMaxRuns && (i < setupMinRuns || total < setupMinTotal); i++ {
		if f != nil {
			f.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if f, err = setup(ctx, w, traced); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		setups = append(setups, d.Seconds())
	}
	defer f.close()
	stream := requestStream(w, f.corpus, seed)

	before := snapshot(f)
	outs, err := drive(ctx, f.st.base, stream, clients, window, w.cold())
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	after := snapshot(f)

	res := &result{
		Stamp:     newStamp(w, seed, window, traced),
		Attempted: len(outs),
		Classes:   map[string]classReport{},
	}
	resps := decode(outs, stream, res)
	judge := eval.NewJudge()
	ex := checkOutputs(f, resps, judge, res)
	checkMemoryZeroLLM(ctx, f, resps, res)

	var lat sample
	var wall time.Duration
	for i := range resps {
		lat.add(ms(resps[i].latency))
		wall = max(wall, resps[i].done)
	}
	calls := after.ledger.TotalCalls() - before.ledger.TotalCalls()
	res.ErrorRate = ratio(float64(res.Non2xx+res.CheckFailures), float64(res.Attempted))
	res.Failed = res.Non2xx - res.Unprocessable + res.CheckFailures
	res.EndToEnd = map[string]metric{
		"qps":               {ratio(float64(res.Attempted), wall.Seconds()), "1/s"},
		"p50_ms":            {lat.p(50), "ms"},
		"p99_ms":            {lat.p(99), "ms"},
		"ex":                {ratio(float64(ex), float64(res.Attempted)), "ratio"},
		"llm_calls_per_req": {ratio(float64(calls), float64(res.Attempted)), "calls/req"},
		"setup_s":           {median(setups), "s"},
	}
	for _, src := range sources {
		res.Classes[src] = classify(resps, src)
	}
	if traced {
		res.Layers = measureLayers(ctx, f, resps, judge, before, after, res)
	}
	res.Correct = res.CheckFailures == 0 && len(res.Problems) == 0
	return res, nil
}

// counters is a snapshot of the program's own counters around the window.
type counters struct {
	ledger  llm.Ledger
	metrics server.MetricsSnapshot
	plan    sqlengine.PlanCacheStats
	waitNs  int64
}

func snapshot(f *fixture) counters {
	c := counters{ledger: f.sim.LedgerSnapshot(), metrics: f.st.srv.Metrics()}
	for _, db := range f.corpus.c.DBs {
		c.plan.Add(db.Engine.PlanCacheStats())
	}
	if f.timed != nil {
		c.waitNs = f.timed.nanos.Load()
	}
	return c
}

// decode parses every outcome; non-200 responses are counted, not parsed.
func decode(outs []outcome, stream []request, res *result) []response {
	resps := make([]response, len(outs))
	for i, o := range outs {
		r := response{outcome: o, ex: stream[o.req].ex}
		switch {
		case o.status == http.StatusOK:
			if err := json.Unmarshal(o.body, &r.qr); err != nil {
				r.bad = true
				res.CheckFailures++
				res.problem("undecodable 200 response: %v", err)
			}
		case o.status == http.StatusUnprocessableEntity:
			res.Non2xx++
			res.Unprocessable++
		case o.status < 200 || o.status > 299:
			res.Non2xx++
			res.problem("request %d: status %d: %s", o.req, o.status, o.body)
		}
		resps[i] = r
	}
	return resps
}

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// executed is one distinct SQL statement re-executed on the benchmark's
// database handle.
type executed struct {
	res *sqlengine.Result
	err error
	// rows is the rendering the server sends, row order kept.
	rows [][]any
}

// checkOutputs re-executes every distinct returned statement on the
// benchmark's database handle and checks each 200 response against it:
// row_count and rows must match (as multisets unless the query orders its
// output) and source must be a known class. It returns the number of
// responses the benchmark's judge scores correct against gold.
func checkOutputs(f *fixture, resps []response, judge *eval.Judge, res *result) (correct int) {
	execs := map[string]*executed{}
	judged := map[string]bool{}
	for i := range resps {
		r := &resps[i]
		if !r.ok() || r.bad {
			continue
		}
		if !slices.Contains(sources, r.qr.Source) {
			res.CheckFailures++
			res.problem("request %d: unknown source %q", r.req, r.qr.Source)
			continue
		}
		db := dbOf(f, r.ex.DB)
		key := r.ex.DB + "\x00" + r.qr.SQL
		x, ok := execs[key]
		if !ok {
			x = execute(db, r.qr.SQL)
			execs[key] = x
		}
		if x.err != nil {
			res.CheckFailures++
			res.problem("request %d: returned SQL does not execute: %v", r.req, x.err)
			continue
		}
		if !sameRows(x, r.qr) {
			res.CheckFailures++
			res.problem("request %d: rows differ from re-execution of %q", r.req, r.qr.SQL)
			continue
		}
		jk := r.ex.ID + "\x00" + r.qr.SQL
		c, ok := judged[jk]
		if !ok {
			c = judge.ScoreRows(db, r.ex, x.res).Correct
			judged[jk] = c
		}
		if c {
			correct++
		}
	}
	return correct
}

func dbOf(f *fixture, name string) *schema.DB {
	db, _ := f.corpus.c.DB(name)
	return db
}

func execute(db *schema.DB, sql string) *executed {
	st, err := db.Engine.Prepare(sql)
	if err != nil {
		return &executed{err: err}
	}
	res, err := st.Exec()
	if err != nil {
		return &executed{err: err}
	}
	x := &executed{res: res}
	if res.Rows != nil {
		x.rows = render(res.Rows)
	}
	return x
}

// render converts engine rows to the values a decoded response carries:
// NULL as nil, everything else its text rendering.
func render(rows *sqlengine.Rows) [][]any {
	out := make([][]any, len(rows.Data))
	for i, row := range rows.Data {
		r := make([]any, len(row))
		for j, v := range row {
			if !v.IsNull() {
				r[j] = v.AsText()
			}
		}
		out[i] = r
	}
	return out
}

// sameRows compares a re-execution with a response. Row order counts
// only when the statement orders its output; parallel execution may
// otherwise emit rows in any order.
func sameRows(x *executed, qr api.QueryResponse) bool {
	if len(x.rows) != qr.RowCount || len(qr.Rows) != qr.RowCount {
		return false
	}
	want, got := rowKeys(x.rows), rowKeys(qr.Rows)
	if !strings.Contains(strings.ToUpper(qr.SQL), "ORDER BY") {
		sort.Strings(want)
		sort.Strings(got)
	}
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}

func rowKeys(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, _ := json.Marshal(r) // strings and nils only
		out[i] = string(b)
	}
	return out
}

// memoryCheckMax bounds the memory-class questions re-served one at a
// time by the zero-LLM check.
const memoryCheckMax = 40

// checkMemoryZeroLLM re-serves memory-class questions one at a time with
// the simulator's ledger watched: an answer served from memory must make
// no LLM call.
func checkMemoryZeroLLM(ctx context.Context, f *fixture, resps []response, res *result) {
	seen := map[string]bool{}
	var reqs []request
	for i := range resps {
		r := &resps[i]
		if r.qr.Source != api.SourceMemory || seen[r.ex.ID] || len(reqs) == memoryCheckMax {
			continue
		}
		seen[r.ex.ID] = true
		reqs = append(reqs, asRequests([]dataset.Example{r.ex})...)
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	for _, rq := range reqs {
		before := f.sim.LedgerSnapshot().TotalCalls()
		o, err := post(ctx, hc, f.st.base, rq.body)
		if err != nil {
			res.problem("memory zero-LLM check: %v", err)
			return
		}
		var qr api.QueryResponse
		if o.status != 200 || json.Unmarshal(o.body, &qr) != nil || qr.Source != api.SourceMemory {
			continue // no longer a memory hit: nothing to check
		}
		if d := f.sim.LedgerSnapshot().TotalCalls() - before; d != 0 {
			res.problem("memory hit for %s made %d LLM calls", rq.ex.ID, d)
		}
	}
}

// classify reports one response class's latency split.
func classify(resps []response, src string) classReport {
	var lat, share sample
	for i := range resps {
		r := &resps[i]
		if !r.ok() || r.qr.Source != src {
			continue
		}
		l := ms(r.latency)
		lat.add(l)
		share.add(ratio(l-float64(r.attributedMicros())/1000, l))
	}
	level := tailLevel(lat.n())
	return classReport{
		N:                 lat.n(),
		P50Ms:             lat.p(50),
		TailPct:           level,
		TailMs:            lat.p(level),
		UnattributedShare: share.p(50),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// print writes the human-readable report: stamp, end-to-end metrics by
// name with unit, error rate, the latency split by source and, traced,
// the per-layer table.
func (r *result) print(w io.Writer) {
	st, _ := json.Marshal(r.Stamp)
	fmt.Fprintf(w, "stamp %s\n", st)
	fmt.Fprintf(w, "== %s (traced %v): %d requests, %d non-2xx (%d of them 422), %d check failures, error_rate %.4f\n",
		r.Stamp.Workload, r.Stamp.Traced, r.Attempted, r.Non2xx, r.Unprocessable, r.CheckFailures, r.ErrorRate)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, k := range endToEndOrder {
		m := r.EndToEnd[k]
		fmt.Fprintf(w, "  %-20s %12.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-10s %7s %10s %10s %10s %14s\n", "source", "n", "p50_ms", "tail", "tail_ms", "unattributed")
	for _, src := range sources {
		c := r.Classes[src]
		fmt.Fprintf(w, "  %-10s %7d %10.3f %9gp %10.3f %14.3f\n", src, c.N, c.P50Ms, c.TailPct, c.TailMs, c.UnattributedShare)
	}
	if r.Stamp.Traced {
		r.printLayers(w)
	}
}

// endToEndOrder is the print order of the end-to-end metrics.
var endToEndOrder = []string{"qps", "p50_ms", "p99_ms", "ex", "llm_calls_per_req", "setup_s"}
