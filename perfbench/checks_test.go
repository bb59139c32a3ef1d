package main

import (
	"math"
	"strings"
	"testing"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/sql"
	"maybms/internal/worlds"
)

const (
	testRows    = 20000
	testDensity = 0.005
	testSeed    = 11
)

// testDB builds a chased census store with q2 and q3 materialized, as the
// conf-embedded set-up does, and the clean world it was drawn from.
func testDB(t *testing.T) (*sql.DB, *cleanWorld) {
	t.Helper()
	st, err := census.NewStore("R", testRows, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := census.AddNoise(st, "R", testDensity, testSeed+1); err != nil {
		t.Fatal(err)
	}
	if err := st.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true}); err != nil {
		t.Fatal(err)
	}
	db := sql.Open(st)
	t.Cleanup(func() { db.Close() })
	for _, q := range []string{"Q2", "Q3"} {
		if _, err := db.Materialize(strings.ToLower(q), census.SQL[q]); err != nil {
			t.Fatal(err)
		}
	}
	return db, newCleanWorld(testRows, testSeed)
}

func query(t *testing.T, db *sql.DB, s statement) (*answer, []string) {
	t.Helper()
	var r runner
	var a answer
	if err := r.embeddedRead(db, &s, &a); err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	p, err := db.Prepare(s.text())
	if err != nil {
		t.Fatal(err)
	}
	return &a, p.Columns()
}

// firstCertainRow returns a row with no uncertain field.
func firstCertainRow(t *testing.T, a *answer) int {
	t.Helper()
	for i := 0; i < a.rows(); i++ {
		if !hasUncertain(a.row(i)) {
			return i
		}
	}
	t.Fatal("answer has no certain row")
	return -1
}

func (a *answer) clone() *answer {
	return &answer{ncols: a.ncols, hasConf: a.hasConf,
		vals: append([]int64(nil), a.vals...), confs: append([]float64(nil), a.confs...)}
}

func dropRow(a *answer, i int) *answer {
	b := a.clone()
	b.vals = append(b.vals[:i*b.ncols:i*b.ncols], b.vals[(i+1)*b.ncols:]...)
	if b.hasConf {
		b.confs = append(b.confs[:i:i], b.confs[i+1:]...)
	}
	return b
}

// TestPlainCheckRejectsCorruption: a plain answer passes the clean-world
// check, and fails it once a row is dropped or a certain value changed.
func TestPlainCheckRejectsCorruption(t *testing.T) {
	db, clean := testDB(t)
	for _, s := range []statement{q1(17), stmtQ2, stmtQ3, stmtQ4, stmtQ6} {
		a, cols := query(t, db, s)
		want := s.clean(clean)
		if err := checkPlain(a, cols, want); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", s.name, err)
		}
		if want.n() == 0 {
			continue
		}
		// Dropping every row that could carry some clean answer must fail;
		// dropping a certain row fails unless an uncertain row absorbs it,
		// so drop the last clean answer's certain twin and all uncertain rows.
		i := firstCertainRow(t, a)
		b := a.clone()
		b.vals = b.vals[:0]
		for r := 0; r < a.rows(); r++ {
			if r != i && !hasUncertain(a.row(r)) {
				b.vals = append(b.vals, a.row(r)...)
			}
		}
		if err := checkPlain(b, cols, want); err == nil {
			t.Errorf("%s: answer with a dropped row accepted", s.name)
		}
		c := a.clone()
		c.row(i)[0] = 9999
		if err := checkPlain(c, cols, want); err == nil {
			t.Errorf("%s: answer with a perturbed certain value accepted", s.name)
		}
	}
}

// TestConfCheckRejectsCorruption: confidence answers pass their checks and
// fail them once a confidence is perturbed or a tuple dropped.
func TestConfCheckRejectsCorruption(t *testing.T) {
	db, clean := testDB(t)
	for _, s := range []statement{
		q1(17).withHead("CONF()"), stmtQ2.withHead("POSSIBLE"), stmtQ6.withHead("CERTAIN"),
		stmtExcept.withHead("CONF()"), stmtJoin.withHead("CONF()"),
	} {
		own, cols := query(t, db, s)
		possible, _ := query(t, db, s.withHead("POSSIBLE"))
		certain, _ := query(t, db, s.withHead("CERTAIN"))
		want := s.clean(clean)
		if err := checkConf(own, s.head, possible, certain, cols, want); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", s.name, err)
		}
		if own.rows() == 0 {
			t.Fatalf("%s: empty answer; the test store is too small", s.name)
		}
		for _, c := range []float64{0, 1.5, math.NaN()} {
			bad := own.clone()
			bad.confs[0] = c
			if err := checkConf(bad, s.head, possible, certain, cols, want); err == nil {
				t.Errorf("%s: confidence %v accepted", s.name, c)
			}
		}
		if s.head == "CERTAIN" {
			bad := certain.clone()
			bad.confs[0] = 0.5
			if err := checkConf(own, s.head, possible, bad, cols, want); err == nil {
				t.Errorf("%s: CERTAIN tuple with confidence 0.5 accepted", s.name)
			}
			continue
		}
		bad := own.clone()
		bad.confs[0] *= 0.5
		if err := checkConf(bad, s.head, possible, certain, cols, want); err == nil {
			t.Errorf("%s: halved confidence accepted", s.name)
		}
		if err := checkConf(dropRow(own, 0), s.head, possible, certain, cols, want); err == nil {
			t.Errorf("%s: answer with a dropped tuple accepted", s.name)
		}
	}
}

// TestIdenticalRejectsOneULP: the wire and sharded checks compare answers
// byte for byte, so one ulp of confidence is a difference.
func TestIdenticalRejectsOneULP(t *testing.T) {
	db, _ := testDB(t)
	a, _ := query(t, db, q1(17).withHead("CONF()"))
	if !a.identical(a.clone()) {
		t.Fatal("an answer differs from its copy")
	}
	b := a.clone()
	b.confs[0] = math.Nextafter(b.confs[0], 2)
	if a.identical(b) {
		t.Error("a one-ulp confidence change was not detected")
	}
	if a.identical(dropRow(a, 0)) {
		t.Error("a dropped row was not detected")
	}
}

// TestWorldsCheckRejectsCorruption: on the small store every statement
// agrees with the per-world reference, and a perturbed confidence, a dropped
// tuple or a missing instance does not.
func TestWorldsCheckRejectsCorruption(t *testing.T) {
	st, db, ws, err := smallStore(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, s := range []statement{q1(17), stmtQ4, stmtQ6.withHead("CERTAIN"), stmtExcept.withHead("CONF()"), stmtJoin.withHead("CONF()")} {
		if err := checkWorlds(&s, st, db, ws); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
	s := stmtQ4.withHead("POSSIBLE")
	got, _ := query(t, db, s)
	ref, err := sql.PrepareWorlds(ws, s.text())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ref.Query()
	if err != nil {
		t.Fatal(err)
	}
	var d drainer
	var want answer
	if err := d.drain(rows, len(rows.Columns()), true, false, &want, nil); err != nil {
		t.Fatal(err)
	}
	if err := sameConfs(got, &want); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	bad := got.clone()
	bad.confs[0] += 1e-6
	if sameConfs(bad, &want) == nil {
		t.Error("perturbed confidence accepted")
	}
	if sameConfs(dropRow(got, 0), &want) == nil {
		t.Error("dropped tuple accepted")
	}

	// The whole of R has one instance per combination of or-set values.
	const all = "SELECT * FROM R"
	if _, err := db.Materialize("p", all); err != nil {
		t.Fatal(err)
	}
	eng, err := st.RepRelation("p", smallMaxWorlds)
	if err != nil {
		t.Fatal(err)
	}
	wq, err := sql.PrepareWorlds(ws, all)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := wq.Query()
	if err != nil {
		t.Fatal(err)
	}
	per := wr.Result().WorldSet
	if err := sameWorlds(eng, per); err != nil {
		t.Fatalf("correct world-set rejected: %v", err)
	}
	if len(canonical(per)) < 2 {
		t.Fatalf("R on the small store has one instance; the corruption below would not show")
	}
	cut := &worlds.WorldSet{Schema: per.Schema}
	for i, w := range per.Worlds {
		if instance(w) != instance(per.Worlds[0]) {
			cut.Add(w, per.Probs[i])
		}
	}
	if sameWorlds(eng, cut) == nil {
		t.Error("world-set missing an instance accepted")
	}
}
