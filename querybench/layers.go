package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/eval"
	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/qmemory"
	"repro/internal/seed"
)

// layerMetric names one per-layer metric and the end-to-end metric it
// should move, on which workload. BENCHMARK.json's per_layer list is this
// table without the moves column.
type layerMetric struct {
	name, unit, better, moves string
}

// stages are the SEED evidence DAG's stages.
var stages = []string{"extract_keywords", "sample_execution", "summarize_schema", "select_few_shots", "generate"}

// templates are the synth workload's query templates, as templateOf names
// them.
var templates = []string{"count", "range", "sum", "avg", "join", "topk"}

// layerMetrics lists every per-layer metric in report order. A latency
// is its p50 (pipeline stages: their mean), with its sample count beside
// it under the same name plus ".n".
var layerMetrics = func() []layerMetric {
	lat := func(name, moves string) []layerMetric {
		return []layerMetric{{name, "ms", "lower", moves}, {name + ".n", "count", "higher", "sample count of " + name}}
	}
	var out []layerMetric
	add := func(ms ...layerMetric) { out = append(out, ms...) }
	add(lat("server.unattributed_ms", "p50_ms on hit-20k")...)
	add(layerMetric{"server.unattributed_share", "ratio", "lower", "p50_ms on hit-20k"})
	add(lat("server.encode_ms", "p50_ms on hit-20k")...)
	add(lat("server.batcher_wait_ms", "p50_ms on bird-cold")...)
	add(layerMetric{"server.traced_p50_ms", "ms", "lower", "tracing overhead: traced over untraced p50_ms"})
	add(lat("qmemory.lookup_ms", "p50_ms on hit-20k")...)
	add(layerMetric{"qmemory.lookups_per_serve", "count", "lower", "p50_ms on hit-20k"},
		layerMetric{"qmemory.hit_rate", "ratio", "higher", "llm_calls_per_req and qps on hit-20k"})
	add(lat("qmemory.admit_ms", "p50_ms on bird-cold (write path)")...)
	add(layerMetric{"evserve.cache_hit_rate", "ratio", "higher", "llm_calls_per_req on bird-cold and hit-20k"})
	for _, st := range stages {
		add(lat("pipeline.stage_ms."+st, "p50_ms on bird-cold")...)
	}
	add(layerMetric{"pipeline.overlap", "ratio", "higher", "p50_ms on bird-cold"},
		layerMetric{"pipeline.memo_hit_rate", "ratio", "higher", "p50_ms on bird-cold"})
	add(lat("texttosql.generate_ms", "p50_ms on bird-cold")...)
	add(layerMetric{"llm.wait_ms_per_req", "ms", "lower", "p50_ms on bird-cold"},
		layerMetric{"llm.prompt_tokens_per_req", "tokens", "lower", "llm_calls_per_req on bird-cold"})
	add(lat("sqlengine.prepare_ms", "p50_ms on hit-20k")...)
	add(layerMetric{"sqlengine.plan_cache_hit_rate", "ratio", "higher", "p50_ms on hit-20k"})
	for _, t := range templates {
		add(lat("sqlengine.exec_ms."+t, "p99_ms and qps on hit-20k; none on bird-cold")...)
	}
	add(layerMetric{"sqlengine.cost_per_req", "rows", "lower", "none: a logical count that moves only when plans change"})
	add(lat("eval.judge_ms", "p50_ms on hit-20k")...)
	add(lat("evstore.append_ms", "p50_ms on bird-cold")...)
	add(layerMetric{"evstore.appends_per_req", "count", "lower", "p50_ms on bird-cold"})
	return out
}()

// layerSet collects per-layer samples and values by metric name.
type layerSet struct {
	lat  map[string]*sample
	vals map[string]float64
}

func (l *layerSet) add(name string, v float64) {
	s := l.lat[name]
	if s == nil {
		s = &sample{}
		l.lat[name] = s
	}
	s.add(v)
}

// timeIt runs fn and records its wall time under name.
func (l *layerSet) timeIt(name string, fn func()) {
	t0 := time.Now()
	fn()
	l.add(name, ms(time.Since(t0)))
}

// replayMax bounds how many responses each replay walks, so the traced
// run's post-window work stays within seconds on every workload.
const replayMax = 2000

// measureLayers takes the per-layer metrics of a traced run from outside
// the program: from the responses and the server's counters, and by
// timing calls into each layer's public functions on the benchmark's own
// handles.
func measureLayers(ctx context.Context, f *fixture, resps []response, judge *eval.Judge, before, after counters, res *result) map[string]metric {
	l := &layerSet{lat: map[string]*sample{}, vals: map[string]float64{}}
	var ok []*response
	for i := range resps {
		if resps[i].ok() && !resps[i].bad {
			ok = append(ok, &resps[i])
		}
	}
	n := float64(len(resps))
	recent := ok
	if len(recent) > replayMax {
		recent = recent[len(recent)-replayMax:]
	}

	// server: time the server did not attribute to a phase, and the cost
	// of encoding each response again.
	var memoryHits float64
	var cost float64
	var share sample
	for _, r := range ok {
		lat := ms(r.latency)
		un := lat - float64(r.attributedMicros())/1000
		l.add("server.unattributed_ms", un)
		share.add(ratio(un, lat))
		if r.qr.Source == api.SourceMemory {
			memoryHits++
		}
		cost += float64(r.qr.Cost)
		if r.qr.Source != api.SourceMemory {
			l.add("texttosql.generate_ms", float64(r.qr.Timing.GenerateMicros)/1000)
		}
	}
	for _, r := range recent {
		l.timeIt("server.encode_ms", func() { api.WriteJSON(httptest.NewRecorder(), http.StatusOK, r.qr) })
	}
	l.vals["server.unattributed_share"] = share.p(50)
	l.vals["server.traced_p50_ms"] = res.EndToEnd["p50_ms"].Value
	l.vals["qmemory.hit_rate"] = ratio(memoryHits, float64(len(ok)))
	l.vals["sqlengine.cost_per_req"] = ratio(cost, float64(len(ok)))
	batcherWaits(ctx, f, ok, l)

	// evserve and evstore counters from the server.
	corpusName := f.corpus.c.Name
	eb, ea := before.metrics.Evidence[corpusName], after.metrics.Evidence[corpusName]
	hits, misses := ea.CacheHits-eb.CacheHits, ea.CacheMisses-eb.CacheMisses
	l.vals["evserve.cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	appends := after.metrics.Store[corpusName].Appends - before.metrics.Store[corpusName].Appends
	l.vals["evstore.appends_per_req"] = ratio(float64(appends), n)

	// llm: the wait the timing wrapper saw and the ledger's token count.
	l.vals["llm.wait_ms_per_req"] = ratio(float64(after.waitNs-before.waitNs)/1e6, n)
	tokens := 0
	for model, u := range after.ledger.PerModel {
		tokens += u.PromptTokens - before.ledger.PerModel[model].PromptTokens
	}
	l.vals["llm.prompt_tokens_per_req"] = ratio(float64(tokens), n)

	// sqlengine: plan-cache behaviour during the window, then prepare and
	// execute of every distinct returned statement on the benchmark's
	// handle, timed per template.
	probes := (after.plan.Hits - before.plan.Hits) + (after.plan.Misses - before.plan.Misses)
	l.vals["sqlengine.plan_cache_hit_rate"] = ratio(float64(after.plan.Hits-before.plan.Hits), float64(probes))
	type stmtKey struct{ db, sql string }
	distinct := map[stmtKey]*response{}
	for _, r := range ok {
		distinct[stmtKey{r.ex.DB, r.qr.SQL}] = r
	}
	for _, r := range recent {
		db := dbOf(f, r.ex.DB)
		l.timeIt("sqlengine.prepare_ms", func() { _, _, _ = db.Engine.PrepareCached(r.qr.SQL) })
	}
	const execRepeats = 3
	for k, r := range distinct {
		db := dbOf(f, k.db)
		st, err := db.Engine.Prepare(k.sql)
		if err != nil {
			continue // the output check already reported it
		}
		name := "sqlengine.exec_ms." + templateOf(k.sql)
		for i := 0; i < execRepeats; i++ {
			l.timeIt(name, func() { _, _ = st.Exec() })
		}
		// eval: judging with gold already cached (checkOutputs judged
		// every response once).
		if x, err := st.Exec(); err == nil {
			l.timeIt("eval.judge_ms", func() { judge.ScoreRows(db, r.ex, x) })
		}
	}

	// pipeline: the evidence trace of each distinct generation the
	// responses carry (on hit-20k, the set-up generations behind cache hits).
	traces := map[string]*pipeline.Trace{}
	for _, r := range ok {
		if r.qr.EvidenceTrace != nil {
			traces[r.ex.DB+"\x00"+r.ex.Question] = r.qr.EvidenceTrace
		}
	}
	var overlap sample
	var memoHits, stageRuns float64
	for _, tr := range traces {
		for _, st := range tr.Stages {
			l.add("pipeline.stage_ms."+st.Stage, float64(st.WallMicros)/1000)
			stageRuns++
			if st.CacheHit {
				memoHits++
			}
		}
		overlap.add(tr.Overlap())
	}
	// Trace walls are whole microseconds, so the p50 of a stage that takes
	// a few microseconds reads the same on every run; stages report their
	// mean instead.
	for _, st := range stages {
		if s := l.lat["pipeline.stage_ms."+st]; s != nil {
			l.vals["pipeline.stage_ms."+st] = s.sum() / float64(s.n())
		}
	}
	l.vals["pipeline.overlap"] = overlap.p(50)
	l.vals["pipeline.memo_hit_rate"] = ratio(memoHits, stageRuns)

	replayMemory(f, resps, judge, l)
	if err := replayStore(f, ok, l); err != nil {
		res.problem("evstore replay: %v", err)
	}

	out := map[string]metric{}
	for _, m := range layerMetrics {
		v, ok := l.vals[m.name]
		if !ok {
			name, isCount := strings.CutSuffix(m.name, ".n")
			if s := l.lat[name]; s != nil && isCount {
				v = float64(s.n())
			} else if s != nil {
				v = s.p(50)
			}
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// batcherWaits reads the server's batcher.wait spans back through GET
// /v1/traces/{id} for the most recent responses that went through the
// evidence batcher.
func batcherWaits(ctx context.Context, f *fixture, ok []*response, l *layerSet) {
	const maxTraces = 300
	hc := newClient()
	defer hc.CloseIdleConnections()
	fetched := 0
	for i := len(ok) - 1; i >= 0 && fetched < maxTraces; i-- {
		r := ok[i]
		if r.qr.Source == api.SourceMemory || r.traceID == "" {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.st.base+"/v1/traces/"+r.traceID, nil)
		if err != nil {
			return
		}
		resp, err := hc.Do(req)
		if err != nil {
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue // rotated out of the trace store
		}
		var rec obs.TraceRecord
		if json.Unmarshal(data, &rec) != nil {
			continue
		}
		fetched++
		for _, sp := range rec.Spans {
			if sp.Name == "batcher.wait" {
				l.add("server.batcher_wait_ms", float64(sp.DurationMicros)/1000)
			}
		}
	}
}

// maxVerifyAttempts mirrors the server's lookup-verify-exclude loop.
const maxVerifyAttempts = 3

// replayMemory times qmemory on a benchmark-owned Memory. On hit-20k it is
// loaded via Admit with the patterns the teaching pass taught; on
// bird-cold it starts empty and admits what the window's answers would
// admit, in order. Each replayed request runs the server's loop: Lookup,
// execute, verify by fingerprint and judge, exclude and retry.
func replayMemory(f *fixture, resps []response, judge *eval.Judge, l *layerSet) {
	mem, err := qmemory.New(qmemory.Options{})
	if err != nil {
		return
	}
	defer mem.Close()
	admit := func(r *response) {
		db := dbOf(f, r.ex.DB)
		x := execute(db, r.qr.SQL)
		if x.err != nil || !judge.ScoreRows(db, r.ex, x.res).Correct {
			return
		}
		fp := qmemory.Fingerprint(x.res.Rows)
		l.timeIt("qmemory.admit_ms", func() { mem.Admit(r.ex.DB, r.ex.Question, r.qr.Evidence, r.qr.SQL, fp) })
	}
	if !f.w.cold() {
		for _, o := range f.teach {
			r := &response{outcome: o, ex: f.corpus.teach[o.req]}
			if o.status != http.StatusOK || json.Unmarshal(o.body, &r.qr) != nil || r.qr.Source == api.SourceMemory {
				continue
			}
			admit(r)
		}
	}
	// The database is read-only, so each verified statement is executed
	// once; only Lookup is timed.
	execs := map[string]*executed{}
	var lookups, serves float64
	limit := len(resps)
	if limit > replayMax {
		limit = replayMax
	}
	for i := 0; i < limit; i++ {
		r := &resps[i]
		if !r.ok() || r.bad {
			continue
		}
		serves++
		db := dbOf(f, r.ex.DB)
		var tried []string
		for attempt := 0; attempt < maxVerifyAttempts; attempt++ {
			var hit qmemory.Hit
			var found bool
			l.timeIt("qmemory.lookup_ms", func() { hit, found = mem.Lookup(r.ex.DB, r.ex.Question, tried...) })
			lookups++
			if !found {
				break
			}
			tried = append(tried, hit.PatternID)
			x, ok := execs[r.ex.DB+"\x00"+hit.SQL]
			if !ok {
				x = execute(db, hit.SQL)
				execs[r.ex.DB+"\x00"+hit.SQL] = x
			}
			if x.err != nil {
				mem.Failure(hit.PatternID)
				continue
			}
			if qmemory.Fingerprint(x.res.Rows) != hit.Fingerprint || !judge.ScoreRows(db, r.ex, x.res).Correct {
				if hit.Similarity >= 1 {
					mem.Failure(hit.PatternID)
				}
				continue
			}
			mem.Success(hit.PatternID, r.ex.Question)
			break
		}
		if f.w.cold() && r.qr.Source != api.SourceMemory {
			admit(r)
		}
	}
	l.vals["qmemory.lookups_per_serve"] = ratio(lookups, serves)
}

// replayStore times evstore.Store.Append on a temporary store with the
// default flush policy, appending the evidence record of each distinct
// question the responses answered.
func replayStore(f *fixture, ok []*response, l *layerSet) error {
	dir, err := os.MkdirTemp("", "querybench-evstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := evstore.Open(dir, evstore.Options{Manifest: evstore.Manifest(f.corpus.c.Name, corpusSeed)})
	if err != nil {
		return err
	}
	variant := evserve.CacheNamespace(string(seed.VariantGPT), f.corpus.c.Name)
	seen := map[string]bool{}
	for _, r := range ok {
		key := r.ex.DB + "\x00" + r.ex.Question
		if seen[key] {
			continue
		}
		seen[key] = true
		k := evserve.KeyFor(r.ex.DB, variant, r.ex.Question)
		e := evserve.Entry{Evidence: r.qr.Evidence, Trace: r.qr.EvidenceTrace}
		var aerr error
		l.timeIt("evstore.append_ms", func() { aerr = store.Append(k, e) })
		if aerr != nil {
			store.Close()
			return aerr
		}
	}
	return store.Close()
}

// templateOf classifies a statement by the synth template shapes:
// topk orders and limits, join joins, sum and avg aggregate, range
// counts over an inequality, and count is every other scan/filter.
func templateOf(sql string) string {
	up := strings.ToUpper(sql)
	switch {
	case strings.Contains(up, " JOIN "):
		return "join"
	case strings.Contains(up, "ORDER BY") && strings.Contains(up, "LIMIT"):
		return "topk"
	case strings.Contains(up, "SUM("):
		return "sum"
	case strings.Contains(up, "AVG("):
		return "avg"
	case strings.ContainsAny(up, "<>") || strings.Contains(up, "BETWEEN"):
		return "range"
	default:
		return "count"
	}
}

// printLayers writes the per-layer table with each metric's mapping.
func (r *result) printLayers(w io.Writer) {
	fmt.Fprintf(w, "-- per-layer (%s, traced)\n", r.Stamp.Workload)
	for _, m := range layerMetrics {
		v := r.Layers[m.name]
		fmt.Fprintf(w, "  %-40s %12.4f %-10s moves: %s\n", m.name, v.Value, v.Unit, m.moves)
	}
}
