// Package qmemory is the confidence-gated semantic query memory: it
// learns from past *successful* (question, evidence, SQL,
// result-fingerprint) tuples and serves them back for new phrasings of
// the same intent — skipping evidence generation and the LLM entirely.
//
// Retrieval is hybrid (ekaya-engine's text2sql-plan pattern): an
// incoming question is matched against every stored phrasing by cosine
// similarity over the deterministic embedding model plus a BM25 lexical
// score, and the best-scoring pattern is a candidate only if it clears a
// similarity floor, a literal-overlap gate (every literal in the stored
// SQL must appear in the question — a paraphrase of "count rows where
// name='Alice'" still mentions Alice), and a per-pattern confidence
// threshold. Confidence rises on execution success and decays on
// failure, so a pattern whose SQL goes stale (schema drift, data change)
// demotes itself out of serving within a failure or two.
//
// The memory is optionally durable (a Store on internal/wal, the log
// that also carries the evidence store) and replicates to fleet peers
// over an incremental sync protocol (see replicate.go), exactly like
// evidence.
package qmemory

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bm25"
	"repro/internal/embed"
	"repro/internal/sqlengine"
)

// Options tunes a Memory. The zero value is ready: every field defaults
// to the serving-shaped constants below.
type Options struct {
	// ServeThreshold is the confidence a pattern needs before its SQL is
	// served in place of generation; default 0.85.
	ServeThreshold float64
	// MinSimilarity is the hybrid retrieval score floor below which a
	// best match is still a miss; default 0.35. The floor is a coarse
	// relevance filter, not the accuracy gate: under the deterministic
	// hash embeddings a genuine paraphrase lands around 0.4–0.7 while
	// unrelated questions land near zero, and same-shape questions over
	// *different entities* (which score high on any similarity measure)
	// are rejected by the literal-overlap gate and, ultimately, by
	// execution verification.
	MinSimilarity float64
	// InitialConfidence is a freshly admitted pattern's confidence.
	// Admission is already execution-judged (only verified-correct
	// generations enter the memory), so patterns start above the serve
	// threshold; default 0.90.
	InitialConfidence float64
	// SuccessWeight moves confidence toward 1 on a verified success:
	// conf += SuccessWeight * (1 - conf); default 0.25.
	SuccessWeight float64
	// FailureDecay multiplies confidence on a failed verification:
	// conf *= FailureDecay; default 0.45, so one failure demotes a 0.90
	// pattern to 0.405 — below the serve threshold until it re-earns
	// trust through admissions.
	FailureDecay float64
	// TopK bounds the BM25 candidate pool per lookup; default 8.
	TopK int
	// MaxPhrasings bounds the stored phrasings per pattern; default 16.
	MaxPhrasings int
	// Store, when non-nil, makes the memory durable: patterns are
	// replayed from it at construction and persisted write-through.
	Store *Store
}

func (o *Options) fill() {
	if o.ServeThreshold <= 0 {
		o.ServeThreshold = 0.85
	}
	if o.MinSimilarity <= 0 {
		o.MinSimilarity = 0.35
	}
	if o.InitialConfidence <= 0 {
		o.InitialConfidence = 0.90
	}
	if o.SuccessWeight <= 0 {
		o.SuccessWeight = 0.25
	}
	if o.FailureDecay <= 0 {
		o.FailureDecay = 0.45
	}
	if o.TopK <= 0 {
		o.TopK = 8
	}
	if o.MaxPhrasings <= 0 {
		o.MaxPhrasings = 16
	}
}

// Record is one pattern's serializable state: the WAL unit, the sync
// unit, and the replay unit are all this shape.
type Record struct {
	// ID is the pattern key: a hash of (db, SQL), so re-admitting the
	// same SQL under a new phrasing extends the pattern instead of
	// duplicating it.
	ID string `json:"id"`
	// DB names the database the SQL runs against.
	DB string `json:"db"`
	// SQL is the verified query this pattern serves.
	SQL string `json:"sql"`
	// Evidence is the evidence the original generation consumed; served
	// back with memory hits for provenance.
	Evidence string `json:"evidence,omitempty"`
	// Fingerprint pins the execution result the pattern was admitted
	// with; a hit whose re-execution fingerprints differently fails
	// verification.
	Fingerprint string `json:"fingerprint"`
	// Confidence is the serve gate; see Options.
	Confidence float64 `json:"confidence"`
	// Successes and Failures count verified outcomes over the pattern's
	// lifetime (admissions included). Their sum orders replicas'
	// versions of a pattern during sync.
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`
	// Phrasings are the known question phrasings, retrieval documents
	// for future lookups. Bounded by Options.MaxPhrasings.
	Phrasings []string `json:"phrasings"`
}

// events is the total verified-outcome count — the dominance order for
// replica sync (more observed outcomes = newer knowledge).
func (r Record) events() int64 { return r.Successes + r.Failures }

// PatternID derives the stable pattern key for a (db, SQL) pair.
func PatternID(db, sql string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(db))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(sql))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint hashes an execution result (columns and row values, in
// order) for admission pinning and hit verification. The engine is
// deterministic, so identical SQL over identical data always
// fingerprints identically.
func Fingerprint(rows *sqlengine.Rows) string {
	h := fnv.New64a()
	if rows == nil {
		return "empty"
	}
	for _, c := range rows.Columns {
		_, _ = h.Write([]byte(c))
		_, _ = h.Write([]byte{1})
	}
	var buf []byte
	for _, row := range rows.Data {
		for _, v := range row {
			buf = v.AppendKey(buf[:0])
			_, _ = h.Write(buf)
			_, _ = h.Write([]byte{2})
		}
		_, _ = h.Write([]byte{3})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Hit is a servable lookup result.
type Hit struct {
	PatternID   string
	SQL         string
	Evidence    string
	Fingerprint string
	// Confidence is the pattern's confidence at lookup time.
	Confidence float64
	// Similarity is the hybrid retrieval score of the matched phrasing.
	Similarity float64
}

// pattern is a Record plus its in-memory retrieval state.
type pattern struct {
	rec  Record
	vecs []embed.Vector // parallel to rec.Phrasings
	seq  int64          // last mutation sequence, for incremental sync
}

// dbIndex is one database's retrieval index: a flat phrasing list with a
// lazily (re)built BM25 side. Embeddings live on the patterns.
type dbIndex struct {
	ids  []string // pattern ID per phrasing entry
	docs []string // phrasing text per entry
	idx  *bm25.Index
	// selfNorm is each doc's BM25 score against itself — the absolute
	// scale lexical scores normalize by, so a weak best match reads as
	// weak instead of being inflated to 1.0 by top-score normalization.
	selfNorm []float64
	dirty    bool
}

// Stats is the memory's counter snapshot.
type Stats struct {
	// Patterns and Phrasings size the memory.
	Patterns  int `json:"patterns"`
	Phrasings int `json:"phrasings"`
	// Lookups, Hits and Misses count serve-path probes; HitRate is
	// Hits/Lookups.
	Lookups int64   `json:"lookups"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	// Admitted counts new patterns; Reinforced counts successes recorded
	// against existing ones.
	Admitted   int64 `json:"admitted"`
	Reinforced int64 `json:"reinforced"`
	// Demotions counts confidence drops across the serve threshold — a
	// pattern leaving rotation.
	Demotions int64 `json:"demotions"`
	// Restored counts patterns replayed from the durable store at
	// startup; Injected counts patterns landed by fleet sync.
	Restored int64 `json:"restored,omitempty"`
	Injected int64 `json:"injected,omitempty"`
	// StoreAppends/StoreErrors count write-through persistence outcomes.
	StoreAppends int64 `json:"store_appends,omitempty"`
	StoreErrors  int64 `json:"store_errors,omitempty"`
}

// Memory is the confidence-gated query memory. Construct with New; safe
// for concurrent use.
type Memory struct {
	opts  Options
	model *embed.Model

	mu       sync.Mutex
	patterns map[string]*pattern
	dbs      map[string]*dbIndex
	gen      int64 // sync generation: fresh per construction
	seq      int64 // bumped on every mutation

	stats Stats
}

// New builds a Memory. With Options.Store set, the store's live set is
// replayed into the index (warm restart: the memory a crashed replica
// paid for survives).
func New(opts Options) (*Memory, error) {
	opts.fill()
	m := &Memory{
		opts:     opts,
		model:    embed.NewModel(),
		patterns: make(map[string]*pattern),
		dbs:      make(map[string]*dbIndex),
		gen:      time.Now().UnixNano(),
	}
	if opts.Store != nil {
		var restoreErr error
		err := opts.Store.Load(func(_ string, rec Record) {
			if restoreErr != nil {
				return
			}
			if err := m.applyLocked(rec, false); err != nil {
				restoreErr = err
				return
			}
			m.stats.Restored++
		})
		if err == nil {
			err = restoreErr
		}
		if err != nil {
			return nil, fmt.Errorf("qmemory: restoring store: %w", err)
		}
	}
	return m, nil
}

// Close flushes and closes the durable store, if any.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.opts.Store == nil {
		return nil
	}
	return m.opts.Store.Close()
}

// Lookup finds the best servable pattern for a question: hybrid
// embedding+BM25 match over every stored phrasing of the database,
// gated by similarity floor, literal overlap and pattern confidence.
// Patterns named in exclude are skipped — the serve path passes the
// candidates that already failed verification for this question, so a
// look-alike outscoring the right pattern costs one engine execution
// rather than suppressing the hit.
func (m *Memory) Lookup(db, question string, exclude ...string) (Hit, bool) {
	var excluded map[string]bool
	if len(exclude) > 0 {
		excluded = make(map[string]bool, len(exclude))
		for _, id := range exclude {
			excluded[id] = true
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Lookups++
	di := m.dbs[db]
	if di == nil || len(di.docs) == 0 {
		m.stats.Misses++
		return Hit{}, false
	}
	if di.dirty || di.idx == nil {
		di.idx = bm25.New(di.docs)
		di.selfNorm = make([]float64, len(di.docs))
		for i, doc := range di.docs {
			di.selfNorm[i] = di.idx.Score(doc, i)
		}
		di.dirty = false
	}

	// BM25 side: lexical score for the top-K entries normalized by each
	// doc's self-score, zero elsewhere.
	lex := make(map[int]float64, m.opts.TopK)
	for _, r := range di.idx.TopK(question, m.opts.TopK) {
		if norm := di.selfNorm[r.Index]; norm > 0 {
			s := r.Score / norm
			if s > 1 {
				s = 1
			}
			lex[r.Index] = s
		}
	}

	// Exact-phrasing fast path: a question that IS a recorded successful
	// phrasing of a confident pattern serves that pattern outright —
	// repeat traffic is the common case, and semantic ranking can only
	// add noise on top of an exact prior success.
	for i, doc := range di.docs {
		if doc != question || excluded[di.ids[i]] {
			continue
		}
		p := m.patterns[di.ids[i]]
		if p == nil || p.rec.Confidence < m.opts.ServeThreshold || !literalsCovered(p.rec.SQL, question) {
			continue
		}
		m.stats.Hits++
		return Hit{
			PatternID:   p.rec.ID,
			SQL:         p.rec.SQL,
			Evidence:    p.rec.Evidence,
			Fingerprint: p.rec.Fingerprint,
			Confidence:  p.rec.Confidence,
			Similarity:  1,
		}, true
	}

	// Embedding side: cosine against every phrasing of the db, fused
	// with the lexical score into one hybrid score per pattern (a
	// pattern's best phrasing wins). The scan is bounded by
	// patterns×phrasings, which the phrasing cap keeps small relative to
	// a single pipeline run.
	qv := m.model.Embed(question)
	bestOf := make(map[string]float64)
	for i, id := range di.ids {
		p := m.patterns[id]
		if p == nil || excluded[id] {
			continue
		}
		cos := embed.Cosine(qv, m.vecFor(p, di.docs[i]))
		score := 0.65*cos + 0.35*lex[i]
		if score >= m.opts.MinSimilarity && score > bestOf[id] {
			bestOf[id] = score
		}
	}
	// Candidates ranked by score. Templated workloads make near-ties
	// common — a differently-parameterized question phrased the same way
	// often outscores the right pattern — so the serve decision walks the
	// ranking and takes the FIRST candidate that clears both the
	// confidence and the literal-overlap gate, not just the argmax. The
	// literal gate is what tells the look-alikes apart.
	type cand struct {
		id    string
		score float64
	}
	ranked := make([]cand, 0, len(bestOf))
	for id, s := range bestOf {
		ranked = append(ranked, cand{id, s})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	if len(ranked) > m.opts.TopK {
		ranked = ranked[:m.opts.TopK]
	}
	for _, c := range ranked {
		p := m.patterns[c.id]
		if p.rec.Confidence < m.opts.ServeThreshold || !literalsCovered(p.rec.SQL, question) {
			continue
		}
		m.stats.Hits++
		return Hit{
			PatternID:   p.rec.ID,
			SQL:         p.rec.SQL,
			Evidence:    p.rec.Evidence,
			Fingerprint: p.rec.Fingerprint,
			Confidence:  p.rec.Confidence,
			Similarity:  c.score,
		}, true
	}
	m.stats.Misses++
	return Hit{}, false
}

// vecFor returns the embedding of one of p's phrasings, computing and
// caching it on first use (restored/injected patterns arrive without
// vectors).
func (m *Memory) vecFor(p *pattern, phrasing string) embed.Vector {
	for i, ph := range p.rec.Phrasings {
		if ph == phrasing {
			var zero embed.Vector
			if p.vecs[i] == zero {
				p.vecs[i] = m.model.Embed(ph)
			}
			return p.vecs[i]
		}
	}
	return m.model.Embed(phrasing)
}

// Admit records a verified-correct serving outcome: a new pattern (at
// InitialConfidence) or a success + new phrasing on an existing one.
// Callers must only admit judge-verified generations — admission is the
// memory's accuracy floor.
func (m *Memory) Admit(db, question, evidence, sql, fingerprint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := PatternID(db, sql)
	if p, ok := m.patterns[id]; ok {
		p.rec.Successes++
		p.rec.Confidence += m.opts.SuccessWeight * (1 - p.rec.Confidence)
		// The data may have legitimately changed since admission (bulk
		// load, compaction): re-admission re-pins the fingerprint.
		p.rec.Fingerprint = fingerprint
		if evidence != "" {
			p.rec.Evidence = evidence
		}
		m.addPhrasingLocked(p, question)
		m.touchLocked(p)
		m.stats.Reinforced++
		return
	}
	rec := Record{
		ID: id, DB: db, SQL: sql,
		Evidence:    evidence,
		Fingerprint: fingerprint,
		Confidence:  m.opts.InitialConfidence,
		Successes:   1,
		Phrasings:   []string{question},
	}
	p := &pattern{rec: rec, vecs: []embed.Vector{m.model.Embed(question)}}
	m.patterns[id] = p
	m.indexPhrasingLocked(db, id, question)
	m.touchLocked(p)
	m.stats.Admitted++
}

// Success records a verified memory hit: confidence rises and the
// serving phrasing (a fresh paraphrase, usually) joins the pattern's
// retrieval documents.
func (m *Memory) Success(patternID, question string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.patterns[patternID]
	if !ok {
		return
	}
	p.rec.Successes++
	p.rec.Confidence += m.opts.SuccessWeight * (1 - p.rec.Confidence)
	m.addPhrasingLocked(p, question)
	m.touchLocked(p)
	m.stats.Reinforced++
}

// Failure records a failed hit verification (parse/execute error,
// fingerprint mismatch, or judge rejection): confidence decays, and a
// pattern crossing below the serve threshold counts as a demotion —
// it stops being served until re-earned.
func (m *Memory) Failure(patternID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.patterns[patternID]
	if !ok {
		return
	}
	was := p.rec.Confidence
	p.rec.Failures++
	p.rec.Confidence *= m.opts.FailureDecay
	if was >= m.opts.ServeThreshold && p.rec.Confidence < m.opts.ServeThreshold {
		m.stats.Demotions++
	}
	m.touchLocked(p)
}

// Stats snapshots the memory's counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Patterns = len(m.patterns)
	for _, di := range m.dbs {
		s.Phrasings += len(di.docs)
	}
	if s.Lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(s.Lookups)
	}
	return s
}

// Patterns returns a copy of every record, sorted by ID (tests and the
// sync reader use it).
func (m *Memory) Patterns() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.patterns))
	for _, p := range m.patterns {
		out = append(out, cloneRecord(p.rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// touchLocked stamps a mutated pattern with the next sequence number and
// persists it write-through.
func (m *Memory) touchLocked(p *pattern) {
	m.seq++
	p.seq = m.seq
	if m.opts.Store != nil {
		if err := m.opts.Store.Append(p.rec.ID, cloneRecord(p.rec)); err != nil {
			m.stats.StoreErrors++
		} else {
			m.stats.StoreAppends++
		}
	}
}

// addPhrasingLocked appends a phrasing to a pattern (dedup, bounded) and
// indexes it for retrieval.
func (m *Memory) addPhrasingLocked(p *pattern, question string) {
	if question == "" || len(p.rec.Phrasings) >= m.opts.MaxPhrasings {
		return
	}
	for _, ph := range p.rec.Phrasings {
		if ph == question {
			return
		}
	}
	p.rec.Phrasings = append(p.rec.Phrasings, question)
	p.vecs = append(p.vecs, m.model.Embed(question))
	m.indexPhrasingLocked(p.rec.DB, p.rec.ID, question)
}

// indexPhrasingLocked adds one retrieval document to the db's index.
func (m *Memory) indexPhrasingLocked(db, id, phrasing string) {
	di := m.dbs[db]
	if di == nil {
		di = &dbIndex{}
		m.dbs[db] = di
	}
	di.ids = append(di.ids, id)
	di.docs = append(di.docs, phrasing)
	di.dirty = true
}

// applyLocked installs a full record (restore and sync paths), replacing
// any existing version and reindexing its phrasings. persist=true also
// writes it through to the store.
func (m *Memory) applyLocked(rec Record, persist bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyHeld(rec, persist)
}

// applyHeld is applyLocked with m.mu already held.
func (m *Memory) applyHeld(rec Record, persist bool) error {
	if rec.ID == "" || rec.DB == "" || rec.SQL == "" {
		return fmt.Errorf("qmemory: record missing id/db/sql")
	}
	old := m.patterns[rec.ID]
	rec = cloneRecord(rec)
	p := &pattern{rec: rec, vecs: make([]embed.Vector, len(rec.Phrasings))}
	m.patterns[rec.ID] = p
	// Reindex: drop the old entries for this pattern, add the new set.
	// Rebuilding the flat lists is O(phrasings of the db), fine at the
	// mutation rates sync and restore run at.
	di := m.dbs[rec.DB]
	if old != nil && di != nil {
		ids, docs := di.ids[:0], di.docs[:0]
		for i, id := range di.ids {
			if id != rec.ID {
				ids = append(ids, id)
				docs = append(docs, di.docs[i])
			}
		}
		di.ids, di.docs = ids, docs
	}
	for _, ph := range rec.Phrasings {
		m.indexPhrasingLocked(rec.DB, rec.ID, ph)
	}
	if di = m.dbs[rec.DB]; di != nil {
		di.dirty = true
	}
	m.seq++
	p.seq = m.seq
	if persist && m.opts.Store != nil {
		if err := m.opts.Store.Append(p.rec.ID, cloneRecord(p.rec)); err != nil {
			m.stats.StoreErrors++
		} else {
			m.stats.StoreAppends++
		}
	}
	return nil
}

func cloneRecord(rec Record) Record {
	rec.Phrasings = append([]string(nil), rec.Phrasings...)
	return rec
}

// literalsCovered is the literal-overlap safety gate: every literal in
// the stored SQL (quoted strings and bare numbers) must appear in the
// incoming question. A paraphrase of the same intent carries the same
// entities; a different-entity question that merely *sounds* similar
// does not, and must regenerate instead of being served someone else's
// constants.
func literalsCovered(sql, question string) bool {
	q := strings.ToLower(question)
	for _, lit := range sqlLiterals(sql) {
		if !strings.Contains(q, strings.ToLower(lit)) {
			return false
		}
	}
	return true
}

// sqlLiterals extracts quoted string literals and standalone numeric
// literals from a SQL text.
func sqlLiterals(sql string) []string {
	var out []string
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(sql[j])
				j++
			}
			if b.Len() > 0 {
				out = append(out, b.String())
			}
			i = j
		case c >= '0' && c <= '9':
			// A number is standalone when not part of an identifier.
			if i > 0 && (isIdentChar(sql[i-1]) || sql[i-1] == '.') {
				for i < len(sql) && isIdentChar(sql[i]) {
					i++
				}
				continue
			}
			j := i
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.') {
				j++
			}
			out = append(out, sql[i:j])
			i = j - 1
		}
	}
	return out
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}
