package main

import (
	"strconv"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
)

// statement is one read of a workload. Besides its SQL it restates its
// meaning twice, independently of the program's SQL frontend: clean
// evaluates it on the clean world in plain Go (for the output checks), and
// plan builds it from engine operators (for the traced run's engine spans).
type statement struct {
	name  string
	head  string // "", "CONF()", "POSSIBLE" or "CERTAIN"
	items string // the select list; "*" under CONF()
	body  string // FROM ... [WHERE ...] [EXCEPT SELECT ...]
	args  []any
	clean func(w *cleanWorld) *cleanRel
	plan  func(e *engineRun) string
}

func (s *statement) text() string {
	switch s.head {
	case "":
		return "SELECT " + s.items + " " + s.body
	case "CONF()":
		return "SELECT CONF() " + s.body
	}
	return "SELECT " + s.head + " " + s.items + " " + s.body
}

func (s *statement) hasConf() bool { return s.head != "" }

// withHead returns the statement over the same body under another head.
func (s statement) withHead(head string) statement {
	s.head = head
	s.name += "/" + head
	return s
}

// --- the clean world ---------------------------------------------------------

// cleanRel is a relation of the clean world, column-major. The generator's
// rows before noise are one of the worlds every noisy store represents, and
// the chase keeps that world because the clean rows satisfy the
// dependencies; so its answers bound every store answer from below.
type cleanRel struct {
	attrs []string
	idx   map[string]int
	cols  [][]int32
}

func newCleanRel(attrs []string, cols [][]int32) *cleanRel {
	r := &cleanRel{attrs: attrs, cols: cols, idx: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		r.idx[a] = i
	}
	return r
}

func (r *cleanRel) n() int {
	if len(r.cols) == 0 {
		return 0
	}
	return len(r.cols[0])
}

// row is one row of a cleanRel, read by attribute name.
type row struct {
	r *cleanRel
	i int
}

func (t row) v(attr string) int32 { return t.r.cols[t.r.idx[attr]][t.i] }

// sel keeps the rows satisfying p and projects them onto attrs (all
// attributes when attrs is empty).
func (r *cleanRel) sel(p func(row) bool, attrs ...string) *cleanRel {
	if len(attrs) == 0 {
		attrs = r.attrs
	}
	cols := make([][]int32, len(attrs))
	for i := 0; i < r.n(); i++ {
		if !p(row{r, i}) {
			continue
		}
		for j, a := range attrs {
			cols[j] = append(cols[j], r.cols[r.idx[a]][i])
		}
	}
	return newCleanRel(attrs, cols)
}

// join pairs the rows of a and b whose pair satisfies on, naming the
// attributes pa.X and pb.X as the SQL frontend names join outputs.
func join(a, b *cleanRel, pa, pb string, on func(x, y row) bool) *cleanRel {
	var attrs []string
	for _, x := range a.attrs {
		attrs = append(attrs, pa+"."+x)
	}
	for _, x := range b.attrs {
		attrs = append(attrs, pb+"."+x)
	}
	cols := make([][]int32, len(attrs))
	for i := 0; i < a.n(); i++ {
		for j := 0; j < b.n(); j++ {
			if !on(row{a, i}, row{b, j}) {
				continue
			}
			for k := range a.attrs {
				cols[k] = append(cols[k], a.cols[k][i])
			}
			for k := range b.attrs {
				cols[len(a.attrs)+k] = append(cols[len(a.attrs)+k], b.cols[k][j])
			}
		}
	}
	return newCleanRel(attrs, cols)
}

// except is set difference on whole tuples.
func except(a, b *cleanRel) *cleanRel {
	drop := make(map[string]bool, b.n())
	for j := 0; j < b.n(); j++ {
		drop[b.key(j)] = true
	}
	return a.sel(func(t row) bool { return !drop[a.key(t.i)] })
}

func (r *cleanRel) key(i int) string {
	vals := make([]int64, len(r.cols))
	for c := range r.cols {
		vals[c] = int64(r.cols[c][i])
	}
	return rowKey(vals)
}

// cleanWorld holds the clean relations a statement may read: R and the
// materialized Figure 29 results q2 and q3.
type cleanWorld struct {
	R, q2, q3 *cleanRel
}

// newCleanWorld regenerates the clean census rows for (rows, seed) — the
// same call the store was built from, before noise and chase.
func newCleanWorld(rows int, seed int64) *cleanWorld {
	w := &cleanWorld{R: newCleanRel(census.AttrNames(), census.Generate(rows, seed))}
	w.q2 = w.R.sel(q2Pred, "POWSTATE", "CITIZEN", "IMMIGR")
	w.q3 = w.R.sel(q3Pred, "POWSTATE", "MARITAL", "FERTIL")
	return w
}

// --- the statements ----------------------------------------------------------

func q2Pred(t row) bool { return t.v("CITIZEN") != 0 && t.v("ENGLISH") > 3 }
func q3Pred(t row) bool {
	return t.v("FERTIL") > 4 && t.v("MARITAL") == 1 && t.v("POWSTATE") == t.v("POB")
}

// q1 is Figure 29's Q1 with YEARSCH bound: citizens with schooling code v.
func q1(v int32) statement {
	return statement{
		name: "Q1(" + strconv.Itoa(int(v)) + ")", items: "*",
		body: "FROM R WHERE YEARSCH = ? AND CITIZEN = 0", args: []any{int(v)},
		clean: func(w *cleanWorld) *cleanRel {
			return w.R.sel(func(t row) bool { return t.v("YEARSCH") == v && t.v("CITIZEN") == 0 })
		},
		plan: func(e *engineRun) string {
			return e.sel("R", engine.And{engine.Eq("YEARSCH", v), engine.Eq("CITIZEN", 0)})
		},
	}
}

var (
	stmtQ2 = statement{
		name: "Q2", items: "POWSTATE, CITIZEN, IMMIGR",
		body: "FROM R WHERE CITIZEN <> 0 AND ENGLISH > 3",
		clean: func(w *cleanWorld) *cleanRel {
			return w.R.sel(q2Pred, "POWSTATE", "CITIZEN", "IMMIGR")
		},
		plan: func(e *engineRun) string {
			t := e.sel("R", engine.And{engine.Ne("CITIZEN", 0), engine.Gt("ENGLISH", 3)})
			return e.proj(t, "POWSTATE", "CITIZEN", "IMMIGR")
		},
	}
	stmtQ3 = statement{
		name: "Q3", items: "POWSTATE, MARITAL, FERTIL",
		body: "FROM R WHERE FERTIL > 4 AND MARITAL = 1 AND POWSTATE = POB",
		clean: func(w *cleanWorld) *cleanRel {
			return w.R.sel(q3Pred, "POWSTATE", "MARITAL", "FERTIL")
		},
		plan: func(e *engineRun) string {
			t := e.sel("R", engine.And{engine.Gt("FERTIL", 4), engine.Eq("MARITAL", 1)})
			t = e.sel(t, engine.AttrAttr{A: "POWSTATE", Theta: relation.EQ, B: "POB"})
			return e.proj(t, "POWSTATE", "MARITAL", "FERTIL")
		},
	}
	stmtQ4 = statement{
		name: "Q4", items: "*",
		body: "FROM R WHERE FERTIL = 1 AND (RSPOUSE = 1 OR RSPOUSE = 2)",
		clean: func(w *cleanWorld) *cleanRel {
			return w.R.sel(func(t row) bool {
				return t.v("FERTIL") == 1 && (t.v("RSPOUSE") == 1 || t.v("RSPOUSE") == 2)
			})
		},
		plan: func(e *engineRun) string {
			return e.sel("R", engine.And{engine.Eq("FERTIL", 1),
				engine.Or{engine.Eq("RSPOUSE", 1), engine.Eq("RSPOUSE", 2)}})
		},
	}
	stmtQ6 = statement{
		name: "Q6", items: "POWSTATE, POB",
		body: "FROM R WHERE ENGLISH = 3",
		clean: func(w *cleanWorld) *cleanRel {
			return w.R.sel(func(t row) bool { return t.v("ENGLISH") == 3 }, "POWSTATE", "POB")
		},
		plan: func(e *engineRun) string {
			return e.proj(e.sel("R", engine.Eq("ENGLISH", 3)), "POWSTATE", "POB")
		},
	}
	// stmtExcept removes from the childless widowed the persons whose
	// spouse code is 1; over all 50 attributes, so the difference must
	// pair uncertain rows of both arms.
	stmtExcept = statement{
		name: "EXCEPT", items: "*",
		body: "FROM R WHERE FERTIL = 1 AND MARITAL = 1 EXCEPT SELECT * FROM R WHERE RSPOUSE = 1",
		clean: func(w *cleanWorld) *cleanRel {
			l := w.R.sel(func(t row) bool { return t.v("FERTIL") == 1 && t.v("MARITAL") == 1 })
			return except(l, w.R.sel(func(t row) bool { return t.v("RSPOUSE") == 1 }))
		},
		plan: func(e *engineRun) string {
			l := e.sel("R", engine.And{engine.Eq("FERTIL", 1), engine.Eq("MARITAL", 1)})
			return e.diff(l, e.sel("R", engine.Eq("RSPOUSE", 1)))
		},
	}
	// stmtJoin is Figure 29's Q5 over the materialized q2 and q3.
	stmtJoin = statement{
		name: "Q5", items: "*",
		body: "FROM q2 AS a, q3 AS b WHERE a.POWSTATE > 50 AND b.POWSTATE > 50 AND a.POWSTATE = b.POWSTATE",
		clean: func(w *cleanWorld) *cleanRel {
			return join(w.q2, w.q3, "a", "b", func(x, y row) bool {
				return x.v("POWSTATE") > 50 && y.v("POWSTATE") > 50 && x.v("POWSTATE") == y.v("POWSTATE")
			})
		},
		plan: func(e *engineRun) string {
			l := e.rename(e.sel("q2", engine.Gt("POWSTATE", 50)), map[string]string{"POWSTATE": "P1"})
			r := e.rename(e.sel("q3", engine.Gt("POWSTATE", 50)),
				map[string]string{"POWSTATE": "P2", "MARITAL": "MARITAL2", "FERTIL": "FERTIL2"})
			return e.join(l, r, "P1", "P2")
		},
	}
)

// commitStmt is the small selection every commit materializes and drops.
var commitStmt = q1(17)

// keptStmt is materialized once after the final checkpoint and kept, so
// every restart replays a commit whose result stays in the catalog.
var keptStmt = stmtQ6

// --- engine restatements ----------------------------------------------------

// engineRun builds a statement from engine operators on one arena, timing
// the selection/projection, difference and join calls as separate spans.
type engineRun struct {
	ar      *engine.Arena
	tr      *tracer
	err     error
	in, out int // rows the selections scanned, rows they kept
}

func (e *engineRun) op(span string, f func(res string) (*engine.Relation, error)) string {
	if e.err != nil {
		return ""
	}
	res := e.ar.NewScratch()
	h := e.tr.begin(span)
	_, err := f(res)
	e.tr.end(h)
	e.err = err
	return res
}

func (e *engineRun) sel(src string, p engine.Pred) string {
	res := e.op("engine.select", func(res string) (*engine.Relation, error) { return e.ar.Select(res, src, p) })
	if e.err == nil {
		e.in += e.ar.Rel(src).NumRows()
		e.out += e.ar.Rel(res).NumRows()
	}
	return res
}

func (e *engineRun) proj(src string, attrs ...string) string {
	return e.op("engine.select", func(res string) (*engine.Relation, error) { return e.ar.Project(res, src, attrs...) })
}

func (e *engineRun) rename(src string, m map[string]string) string {
	return e.op("engine.select", func(res string) (*engine.Relation, error) { return e.ar.Rename(res, src, m) })
}

func (e *engineRun) diff(l, r string) string {
	return e.op("engine.difference", func(res string) (*engine.Relation, error) { return e.ar.Difference(res, l, r) })
}

func (e *engineRun) join(l, r, onL, onR string) string {
	return e.op("engine.join", func(res string) (*engine.Relation, error) { return e.ar.Join(res, l, r, onL, onR) })
}
