package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"maybms/internal/relation"
	"maybms/internal/server/client"
)

// uncertain marks a template field that holds the '?' placeholder in a
// drained plain answer.
const uncertain = math.MinInt64

// answer is one fully drained result: the rows' values row-major and, for
// CONF()/POSSIBLE/CERTAIN results, one confidence per row.
type answer struct {
	ncols   int
	vals    []int64
	confs   []float64
	hasConf bool
}

func (a *answer) rows() int {
	if a.ncols == 0 {
		return 0
	}
	return len(a.vals) / a.ncols
}

func (a *answer) row(i int) []int64 { return a.vals[i*a.ncols : (i+1)*a.ncols] }

// identical reports whether two answers are byte-identical: the same rows in
// the same order, and bit-equal confidences.
func (a *answer) identical(b *answer) bool {
	if a.ncols != b.ncols || a.hasConf != b.hasConf || len(a.vals) != len(b.vals) || len(a.confs) != len(b.confs) {
		return false
	}
	for i := range a.vals {
		if a.vals[i] != b.vals[i] {
			return false
		}
	}
	for i := range a.confs {
		if math.Float64bits(a.confs[i]) != math.Float64bits(b.confs[i]) {
			return false
		}
	}
	return true
}

// rowKey renders a row of values as a map key.
func rowKey(vals []int64) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		if v == uncertain {
			b.WriteByte('?')
		} else {
			b.WriteString(strconv.FormatInt(v, 10))
		}
	}
	return b.String()
}

// confByKey maps each row of a confidence answer to its confidence.
func (a *answer) confByKey() map[string]float64 {
	m := make(map[string]float64, a.rows())
	for i := 0; i < a.rows(); i++ {
		m[rowKey(a.row(i))] = a.confs[i]
	}
	return m
}

// rowSource is the result iterator shared by the embedded session API
// (sql.Rows) and the wire client (client.Rows).
type rowSource interface {
	Next() bool
	Scan(dest ...any) error
	Conf() float64
	Err() error
	Close() error
}

// drainer scans results into answers through buffers it reuses, so the
// benchmark's own allocations per read stay constant.
type drainer struct {
	vals  []relation.Value
	dests []any
}

// drain reads every row of rs into out and closes rs. On the wire it wraps
// the Next calls that fetch a batch (every client.DefaultFetch-th call) in
// server.fetch spans.
func (d *drainer) drain(rs rowSource, ncols int, hasConf, wire bool, out *answer, tr *tracer) error {
	if len(d.vals) != ncols {
		d.vals = make([]relation.Value, ncols)
		d.dests = make([]any, ncols)
		for i := range d.vals {
			d.dests[i] = &d.vals[i]
		}
	}
	out.ncols, out.hasConf = ncols, hasConf
	out.vals, out.confs = out.vals[:0], out.confs[:0]
	for i := 0; ; i++ {
		h := 0
		if wire && i%client.DefaultFetch == 0 {
			h = tr.begin("server.fetch")
		}
		ok := rs.Next()
		tr.end(h)
		if !ok {
			break
		}
		if err := rs.Scan(d.dests...); err != nil {
			rs.Close()
			return err
		}
		for _, v := range d.vals {
			if v.IsPlaceholder() {
				out.vals = append(out.vals, uncertain)
			} else {
				out.vals = append(out.vals, v.AsInt())
			}
		}
		if hasConf {
			out.confs = append(out.confs, rs.Conf())
		}
	}
	if err := rs.Err(); err != nil {
		rs.Close()
		return err
	}
	return rs.Close()
}

// describe summarizes the first difference between two answers for a
// failure message.
func describe(got, want *answer) string {
	if got.rows() != want.rows() {
		return fmt.Sprintf("%d rows, want %d", got.rows(), want.rows())
	}
	for i := 0; i < got.rows(); i++ {
		if rowKey(got.row(i)) != rowKey(want.row(i)) {
			return fmt.Sprintf("row %d = (%s), want (%s)", i, rowKey(got.row(i)), rowKey(want.row(i)))
		}
		if got.hasConf && math.Float64bits(got.confs[i]) != math.Float64bits(want.confs[i]) {
			return fmt.Sprintf("row %d conf = %v, want %v", i, got.confs[i], want.confs[i])
		}
	}
	return "shape differs"
}

// sortedKeys returns the keys of m in order (for stable messages).
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
