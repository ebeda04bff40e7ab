package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/synth"
)

// corpusSeed fixes the served data: BIRD dev is a fixed evaluation set in
// the paper, and the synthetic corpora are fixed the same way so that a
// run's seed changes only the request stream, never the data or its
// template mix. It is the corpus seed the repository's commands default to.
const corpusSeed = 7

// synthQuestions is the number of canonical questions in a hit-20k corpus.
const synthQuestions = 40

// workload is one traffic mix over one corpus.
type workload struct {
	name string
	why  string
	// rows sizes the synthetic corpus; 0 serves the BIRD dev split.
	rows int
}

var workloads = []workload{
	{
		name: "bird-cold",
		why:  "BIRD dev served once per question on a fresh server: every request misses memory and runs the evidence DAG plus SQL generation",
	},
	{
		name: "hit-20k",
		why:  "taught 20k-row synth corpus replayed with paraphrases: memory and evidence-cache hits, so per-request read-path constants dominate",
		rows: 20_000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cold reports whether the workload serves each question once against a
// fresh server (bird-cold) rather than replaying a taught set.
func (w workload) cold() bool { return w.rows == 0 }

// corpus is the data a workload serves plus its question sets.
type corpus struct {
	c *dataset.Corpus
	// teach is served once during set-up (hit-20k only); questions is the
	// request population the timed window draws from.
	teach     []dataset.Example
	questions []dataset.Example
}

// buildCorpus makes the workload's corpus. It is deterministic: the data
// depend only on corpusSeed.
func buildCorpus(w workload) (*corpus, error) {
	if w.cold() {
		c := dataset.BuildBIRD(dataset.BIRDOptions{Seed: corpusSeed})
		return &corpus{c: c, questions: c.Dev}, nil
	}
	bird := dataset.BuildBIRD(dataset.BIRDOptions{Seed: corpusSeed, CleanDev: true})
	src, ok := bird.DB("financial")
	if !ok {
		return nil, fmt.Errorf("BIRD corpus has no financial database")
	}
	db, err := synth.Generate(src, synth.Options{Seed: corpusSeed, Rows: synth.ProportionalRows(src, w.rows)})
	if err != nil {
		return nil, fmt.Errorf("generating %d-row corpus: %w", w.rows, err)
	}
	qs, err := synth.Workload(db, synthQuestions, corpusSeed)
	if err != nil {
		return nil, err
	}
	canonical, err := synth.ToExamples(db.Name, qs)
	if err != nil {
		return nil, err
	}
	paraphrases, err := synth.ParaphraseExamples(db.Name, qs)
	if err != nil {
		return nil, err
	}
	c := &dataset.Corpus{
		Name: "synth",
		DBs:  map[string]*schema.DB{db.Name: db},
		Dev:  canonical,
		Test: paraphrases,
	}
	all := append(append([]dataset.Example(nil), canonical...), paraphrases...)
	return &corpus{c: c, teach: canonical, questions: all}, nil
}

// request is one /v1/query call of the stream.
type request struct {
	ex   dataset.Example
	body []byte
}

// requestStream orders the workload's questions for a seed. bird-cold
// keeps corpus order and rotates the start by the seed, so every run
// serves every dev question once. hit-20k replays the taught questions and
// their paraphrases round-robin in a seeded order that keeps the template
// mix of every prefix close to the whole set's (see interleave), so a
// window that ends mid-cycle measures the same mix on every seed.
func requestStream(w workload, c *corpus, seed uint64) []request {
	if w.cold() {
		k := int(seed % uint64(len(c.questions)))
		return asRequests(append(append([]dataset.Example(nil), c.questions[k:]...), c.questions[:k]...))
	}
	return asRequests(interleave(c.questions, rand.New(rand.NewPCG(seed, 0x7175657279)))) // "query"
}

// interleave shuffles each template's questions and merges the templates
// by smooth weighted round robin, weighted by their sizes: over the whole
// stream each template appears exactly as often as it has questions, and
// never bunched.
func interleave(qs []dataset.Example, rng *rand.Rand) []dataset.Example {
	groups := map[string][]dataset.Example{}
	for _, e := range qs {
		t := templateOf(e.GoldSQL)
		groups[t] = append(groups[t], e)
	}
	names := sortedKeys(groups)
	weight := make([]int, len(names))
	for i, n := range names {
		g := groups[n]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		weight[i] = len(g)
	}
	credit := make([]int, len(names))
	out := make([]dataset.Example, 0, len(qs))
	for len(out) < len(qs) {
		best := 0
		for i := range names {
			credit[i] += weight[i]
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= len(qs)
		n := names[best]
		out = append(out, groups[n][0])
		groups[n] = groups[n][1:]
	}
	return out
}

// asRequests wraps examples as a request stream in their order.
func asRequests(es []dataset.Example) []request {
	out := make([]request, len(es))
	for i, e := range es {
		// A struct of strings always marshals.
		body, _ := json.Marshal(api.QueryRequest{DB: e.DB, Question: e.Question})
		out[i] = request{ex: e, body: body}
	}
	return out
}
