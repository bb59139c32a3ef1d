package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/sql"
	"maybms/internal/worlds"
)

// The output checks. Each compares an answer of the program with something
// the program did not compute: the clean rows of the generator, the
// invariants every confidence answer must keep, or the per-world reference
// semantics on a store small enough to enumerate.

// confEps is the tolerance for confidences computed along different paths.
const confEps = 1e-9

// cleanTuples returns the clean relation's rows in the answer's column
// order, as the drained answers hold them.
func cleanTuples(clean *cleanRel, cols []string) ([][]int64, error) {
	pos := make([]int, len(cols))
	for i, c := range cols {
		j, ok := clean.idx[c]
		if !ok {
			return nil, fmt.Errorf("answer column %q has no clean counterpart (clean columns %v)", c, clean.attrs)
		}
		pos[i] = j
	}
	out := make([][]int64, clean.n())
	for r := range out {
		t := make([]int64, len(cols))
		for i, j := range pos {
			t[i] = int64(clean.cols[j][r])
		}
		out[r] = t
	}
	return out, nil
}

func hasUncertain(t []int64) bool {
	for _, v := range t {
		if v == uncertain {
			return true
		}
	}
	return false
}

// compatible reports whether the template row can take the values of t.
func compatible(tpl, t []int64) bool {
	for i, v := range tpl {
		if v != uncertain && v != t[i] {
			return false
		}
	}
	return true
}

// checkPlain checks a plain answer's template rows against the clean
// world's answer. Every clean answer must appear as a distinct template row
// that agrees with it on its certain fields; and a row with no uncertain
// field is present in every world, the clean one included, so it must be a
// clean answer itself. Certain rows are matched by value first, then the
// remaining clean answers are matched to the uncertain rows by augmenting
// paths.
func checkPlain(ans *answer, cols []string, clean *cleanRel) error {
	want, err := cleanTuples(clean, cols)
	if err != nil {
		return err
	}
	left := make(map[string]int, len(want))
	for _, t := range want {
		left[rowKey(t)]++
	}
	var partial [][]int64
	for i := 0; i < ans.rows(); i++ {
		r := ans.row(i)
		if hasUncertain(r) {
			partial = append(partial, r)
			continue
		}
		k := rowKey(r)
		if left[k] == 0 {
			return fmt.Errorf("certain answer row (%s) is not an answer in the clean world", k)
		}
		left[k]--
	}
	var rest [][]int64
	for _, t := range want {
		if k := rowKey(t); left[k] > 0 {
			left[k]--
			rest = append(rest, t)
		}
	}
	owner := make([]int, len(partial)) // index into rest, -1 when free
	for i := range owner {
		owner[i] = -1
	}
	var seen []bool
	var augment func(u int) bool
	augment = func(u int) bool {
		for p, tpl := range partial {
			if seen[p] || !compatible(tpl, rest[u]) {
				continue
			}
			seen[p] = true
			if owner[p] < 0 || augment(owner[p]) {
				owner[p] = u
				return true
			}
		}
		return false
	}
	for u := range rest {
		seen = make([]bool, len(partial))
		if !augment(u) {
			return fmt.Errorf("clean-world answer (%s) has no answer row", rowKey(rest[u]))
		}
	}
	return nil
}

// checkConf checks a CONF()/POSSIBLE/CERTAIN answer (own, under head) with
// the POSSIBLE and CERTAIN answers of the same body: every confidence lies
// in (0, 1]; CONF() and POSSIBLE name the same tuples with the same
// confidences; every CERTAIN tuple is possible with confidence 1 and is a
// clean-world answer; every clean-world answer is possible.
func checkConf(own *answer, head string, possible, certain *answer, cols []string, clean *cleanRel) error {
	for _, a := range []*answer{own, possible, certain} {
		for i, c := range a.confs {
			if !(c > 0 && c <= 1+confEps) {
				return fmt.Errorf("row (%s) has confidence %v outside (0, 1]", rowKey(a.row(i)), c)
			}
		}
	}
	p := possible.confByKey()
	ownConf := own.confByKey()
	if len(ownConf) != own.rows() {
		return fmt.Errorf("%s answer repeats a tuple", head)
	}
	if head == "CONF()" || head == "POSSIBLE" {
		if len(ownConf) != len(p) {
			return fmt.Errorf("%s names %d tuples, POSSIBLE %d", head, len(ownConf), len(p))
		}
		for k, c := range ownConf {
			if pc, ok := p[k]; !ok || math.Abs(pc-c) > confEps {
				return fmt.Errorf("%s tuple (%s) has confidence %v, POSSIBLE %v", head, k, c, p[k])
			}
		}
	}
	want, err := cleanTuples(clean, cols)
	if err != nil {
		return err
	}
	cleanKeys := make(map[string]bool, len(want))
	for _, t := range want {
		k := rowKey(t)
		cleanKeys[k] = true
		if p[k] <= 0 {
			return fmt.Errorf("clean-world answer (%s) has no positive confidence", k)
		}
	}
	for i := 0; i < certain.rows(); i++ {
		k := rowKey(certain.row(i))
		if pc, ok := p[k]; !ok || pc < 1-confEps {
			return fmt.Errorf("CERTAIN tuple (%s) has POSSIBLE confidence %v, want 1", k, p[k])
		}
		if !cleanKeys[k] {
			return fmt.Errorf("CERTAIN tuple (%s) is not a clean-world answer", k)
		}
	}
	if head == "CERTAIN" && !own.identical(certain) {
		return fmt.Errorf("CERTAIN answer differs between runs: %s", describe(own, certain))
	}
	return nil
}

// --- the per-world reference on a small store -------------------------------

const (
	smallRows      = 60
	smallDensity   = 0.0015
	smallMinOrSets = 3
	smallMaxWorlds = 256
)

// smallStore draws a census store of smallRows rows from the workload's
// generator and noise, re-drawing the noise deterministically until it has
// at least smallMinOrSets or-sets and at most smallMaxWorlds worlds after the
// chase, so per-world evaluation stays cheap. derived materializes q2 and
// q3 as the workload's set-up does.
func smallStore(seed int64, derived bool) (*engine.Store, *sql.DB, *worlds.WorldSet, error) {
	for k := int64(0); k < 200; k++ {
		st, err := census.NewStore("R", smallRows, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		n, err := census.AddNoise(st, "R", smallDensity, seed+1+7919*k)
		if err != nil {
			return nil, nil, nil, err
		}
		if n < smallMinOrSets {
			continue
		}
		if err := st.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
			return nil, nil, nil, err
		}
		db := sql.Open(st)
		if derived {
			for _, q := range []string{"Q2", "Q3"} {
				if _, err := db.Materialize(strings.ToLower(q), census.SQL[q]); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		w, err := st.ToWSD()
		if err != nil {
			return nil, nil, nil, err
		}
		if w.NumWorlds() > smallMaxWorlds {
			db.Close()
			continue
		}
		ws, err := w.Rep(smallMaxWorlds)
		if err != nil {
			return nil, nil, nil, err
		}
		return st, db, ws, nil
	}
	return nil, nil, nil, fmt.Errorf("no small store with %d..%d worlds for seed %d", smallMinOrSets, smallMaxWorlds, seed)
}

// checkWorlds runs s on the small store through the engine and through
// the per-world reference (sql.PrepareWorlds) and requires equal answers:
// equal tuples and confidences for CONF()/POSSIBLE/CERTAIN, and the same
// world-set of result relations for a plain statement.
func checkWorlds(s *statement, st *engine.Store, db *sql.DB, ws *worlds.WorldSet) error {
	ref, err := sql.PrepareWorlds(ws, s.text())
	if err != nil {
		return fmt.Errorf("per-world prepare: %w", err)
	}
	wrows, err := ref.Query(s.args...)
	if err != nil {
		return fmt.Errorf("per-world query: %w", err)
	}
	defer wrows.Close()
	if s.hasConf() {
		var d drainer
		var got, want answer
		rows, err := db.Query(s.text(), s.args...)
		if err != nil {
			return err
		}
		if err := d.drain(rows, len(rows.Columns()), true, false, &got, nil); err != nil {
			return err
		}
		if err := d.drain(wrows, len(wrows.Columns()), true, false, &want, nil); err != nil {
			return err
		}
		return sameConfs(&got, &want)
	}
	const res = "bench_small"
	if _, err := db.Materialize(res, s.text(), s.args...); err != nil {
		return err
	}
	defer db.DropRelation(res)
	got, err := st.RepRelation(res, smallMaxWorlds)
	if err != nil {
		return err
	}
	return sameWorlds(got, wrows.Result().WorldSet)
}

// sameWorlds compares two world-sets of one result relation: the same
// distinct instances, with the same total probabilities when both sides
// carry probabilities (as worlds.WorldSet.Equal does: an empty engine
// result has no components and so none).
func sameWorlds(got, want *worlds.WorldSet) error {
	g, w := canonical(got), canonical(want)
	if len(g) != len(w) {
		return fmt.Errorf("engine result has %d distinct instances, per-world reference %d", len(g), len(w))
	}
	probs := got.Probabilistic() && want.Probabilistic()
	for k, p := range w {
		q, ok := g[k]
		if !ok {
			return fmt.Errorf("per-world instance {%s} is not an engine result instance", k)
		}
		if probs && math.Abs(p-q) > confEps {
			return fmt.Errorf("instance {%s}: engine probability %v, per-world %v", k, q, p)
		}
	}
	return nil
}

// sameConfs compares two confidence answers as tuple → confidence maps.
func sameConfs(got, want *answer) error {
	g, w := got.confByKey(), want.confByKey()
	if len(g) != len(w) {
		return fmt.Errorf("engine gives %d tuples, per-world reference %d", len(g), len(w))
	}
	for _, k := range sortedKeys(w) {
		if gc, ok := g[k]; !ok || math.Abs(gc-w[k]) > confEps {
			return fmt.Errorf("tuple (%s): engine confidence %v, per-world %v", k, g[k], w[k])
		}
	}
	return nil
}

// canonical maps each distinct instance of a single-relation world-set's
// relation to its total probability.
func canonical(ws *worlds.WorldSet) map[string]float64 {
	m := make(map[string]float64)
	for i, w := range ws.Worlds {
		m[instance(w)] += ws.Probs[i]
	}
	return m
}

// instance renders a world's relation instance as a key.
func instance(w *worlds.Database) string {
	var keys []string
	for _, r := range w.Rels {
		for _, t := range r.Tuples() {
			keys = append(keys, t.Key())
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "; ")
}
