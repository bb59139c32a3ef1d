package main

import (
	"bytes"
	"testing"

	"maybms/internal/census"
	"maybms/internal/storage"
)

// inputs returns the serialized store and the read round a seed generates
// for a workload shape: what the program receives. The chase is the
// program's own first step, so its output is not an input.
func inputs(t *testing.T, w *workload, rows int, seed int64) ([]byte, []string) {
	t.Helper()
	st, err := census.NewStore("R", rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := census.AddNoise(st, "R", w.density, seed+1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.Save(st, &buf); err != nil {
		t.Fatal(err)
	}
	var texts []string
	mix, _ := w.round(seed)
	for _, s := range mix {
		texts = append(texts, s.name)
	}
	return buf.Bytes(), texts
}

// TestSameSeedSameInputs: one seed always generates the same store and the
// same read round; another seed generates another store.
func TestSameSeedSameInputs(t *testing.T) {
	const rows = 5000
	for _, w := range workloads {
		a, ma := inputs(t, w, rows, 42)
		b, mb := inputs(t, w, rows, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 generated two different stores", w.name)
		}
		if len(ma) != len(mb) {
			t.Fatalf("%s: seed 42 generated rounds of %d and %d reads", w.name, len(ma), len(mb))
		}
		for i := range ma {
			if ma[i] != mb[i] {
				t.Errorf("%s: seed 42 generated read %d as %s and %s", w.name, i, ma[i], mb[i])
			}
		}
		if c, _ := inputs(t, w, rows, 43); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 generated the same store", w.name)
		}
	}
}

// TestSecondSeedPassesEveryCheck runs every workload end to end, scaled
// down, on a seed other than the default, traced so the probes run too, and
// requires every operation and check to pass.
func TestSecondSeedPassesEveryCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		small := *w
		small.rows = 20000
		r := &runner{w: &small, seed: 7, seconds: 0.2, dir: t.TempDir(), tr: newTracer()}
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, f := range r.failures {
			t.Errorf("%s: %s", w.name, f)
		}
		if r.attempted == 0 || r.wrong+r.errored != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, r.wrong+r.errored, r.attempted)
		}
		for _, m := range append(r.endToEnd(), r.layerMetrics()...) {
			if m.value != m.value { // NaN
				t.Errorf("%s: metric %s is NaN", w.name, m.name)
			}
		}
	}
}
