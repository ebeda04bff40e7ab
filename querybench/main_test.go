package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func streamBytes(t *testing.T, w workload, seed uint64) []byte {
	t.Helper()
	c, err := buildCorpus(w)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range requestStream(w, c, seed) {
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// The same seed must produce byte-identical request lists, from
// independent corpus builds; another seed must produce another order.
func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{"bird-cold", "hit-20k"} {
		w, _ := workloadByName(name)
		a, b := streamBytes(t, w, 5), streamBytes(t, w, 5)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 5 gave two different request lists", name)
		}
		if bytes.Equal(a, streamBytes(t, w, 6)) {
			t.Errorf("%s: seeds 5 and 6 gave the same request list", name)
		}
	}
}

// Every query of the synth workload is classified as the template that
// produced it, recognised by its question wording, and all six occur.
func TestTemplateClassifierMapsSynthTemplates(t *testing.T) {
	bird := dataset.BuildBIRD(dataset.BIRDOptions{Seed: corpusSeed, CleanDev: true})
	src, _ := bird.DB("financial")
	db, err := synth.Generate(src, synth.Options{Seed: 3, Rows: synth.ProportionalRows(src, 2000)})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := synth.Workload(db, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	byWording := []struct {
		re       *regexp.Regexp
		template string
	}{
		{regexp.MustCompile(`^How many rows in .* equal to`), "count"},
		{regexp.MustCompile(`^How many \S+ rows have .* greater than`), "range"},
		{regexp.MustCompile(`^What is the total`), "sum"},
		{regexp.MustCompile(`^What is the average`), "avg"},
		{regexp.MustCompile(`rows belong to a`), "join"},
		{regexp.MustCompile(`^Which \d+ .* highest`), "topk"},
	}
	seen := map[string]bool{}
	for _, q := range qs {
		want := ""
		for _, bw := range byWording {
			if bw.re.MatchString(q.Question) {
				want = bw.template
			}
		}
		if want == "" {
			t.Fatalf("unrecognised question wording: %q", q.Question)
		}
		if got := templateOf(q.SQL); got != want {
			t.Errorf("templateOf(%q) = %s, want %s", q.SQL, got, want)
		}
		seen[want] = true
	}
	for _, tpl := range templates {
		if !seen[tpl] {
			t.Errorf("template %s never occurred in the workload", tpl)
		}
	}
}

func TestPercentileHelpers(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}} {
		if got := s.p(c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %g, want 0", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {19, 50}, {20, 50}, {100, 90}, {438, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", got)
	}
}

// BENCHMARK.json lists exactly the workloads and per-layer metrics this
// program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s", i, spec.Workloads[i], w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndOrder) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEndOrder))
	}
	for i, name := range endToEndOrder {
		if spec.EndToEnd[i].Name != name {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s, program has %s", i, spec.EndToEnd[i].Name, name)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		p := spec.PerLayer[i]
		if p.Name != m.name || p.Unit != m.unit || p.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, program has %s %s %s", i, p, m.name, m.unit, m.better)
		}
	}
}
