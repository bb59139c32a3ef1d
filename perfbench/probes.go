package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/relation"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/shard"
	"maybms/internal/sql"
	"maybms/internal/storage"
)

// The traced run's probes call each layer's public functions directly,
// with the workload's own store and statements, so every workload reports
// every per-layer metric, including layers its end-to-end path bypasses.

const (
	probeReps   = 3
	probeShards = 4
	walProbes   = 20
)

// probeTotals are the per-layer counts the probes take besides spans.
type probeTotals struct {
	plans, scanned, kept, comps int
	wireReads                   int
	wireBytes                   int64
	overheadMS                  []float64
	walBytes                    float64
	rowSkew                     float64
	snapshotBytes               int64
}

func (r *runner) probes() error {
	if err := r.probeEngine(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if err := r.probeWire(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := r.probeWAL(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := r.probeShard(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// probeEngine restates each read on engine operators over an arena of the
// DB's current snapshot, plus the EXCEPT and the Q5 join where the mix has
// none, so difference and join are timed on every store.
func (r *runner) probeEngine() error {
	r.tr.request()
	for i := 0; i < 200; i++ {
		h := r.tr.begin("engine.snapshot")
		r.db.Snapshot()
		r.tr.end(h)
	}
	stmts := append([]statement(nil), r.mix...)
	for _, extra := range []statement{stmtExcept, stmtJoin} {
		found := false
		for _, s := range r.mix {
			found = found || s.body == extra.body
		}
		if !found {
			stmts = append(stmts, extra.withHead("CONF()"))
		}
	}
	for rep := 0; rep < probeReps; rep++ {
		for i := range stmts {
			s := &stmts[i]
			r.tr.request()
			ar := engine.AcquireArena(r.db.Snapshot())
			e := engineRun{ar: ar, tr: r.tr}
			if strings.Contains(s.body, "q2") && !r.w.derived {
				e.err = census.Q2(ar, "R", "q2")
				if e.err == nil {
					e.err = census.Q3(ar, "R", "q3")
				}
			}
			res := s.plan(&e)
			if e.err == nil && s.hasConf() {
				h := r.tr.begin("engine.conf")
				_, e.err = ar.PossibleP(res)
				r.tr.end(h)
			}
			if e.err == nil {
				r.probe.plans++
				r.probe.scanned += e.in
				r.probe.kept += e.out
				r.probe.comps += ar.Stats(res).NumComp
			}
			engine.ReleaseArena(ar)
			if e.err != nil {
				return fmt.Errorf("%s: %w", s.name, e.err)
			}
		}
	}
	return nil
}

// serveProbe returns the address of a server over db: the workload's own
// server when it has one over db, else a fresh one that stop closes.
func (r *runner) serveProbe(db *sql.DB) (addr string, stop func(), err error) {
	if r.srv != nil && db == r.db {
		return r.addr, func() {}, nil
	}
	srv := server.New(db, server.Config{Logf: func(string, ...any) {}})
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	return a.String(), func() { srv.Close() }, nil
}

// probeWire runs each read of the mix both embedded and over the wire on
// the same DB — the wire connection through a byte-counting relay — and
// times commits on the path the workload's timed commits bypass: over the
// wire on the embedded workloads, embedded on the wire workload.
//
// On a sharded workload the reads use an unsharded session over the same
// store: a sharded CONF()/POSSIBLE/CERTAIN read through the server panics
// once its merged answer reaches 1024 tuples (see CHANGES.md), so the wire
// layer is measured on the unsharded plan.
func (r *runner) probeWire() error {
	db, release := r.referenceDB()
	defer release()
	addr, stop, err := r.serveProbe(db)
	if err != nil {
		return err
	}
	defer stop()
	rl, err := startRelay(addr)
	if err != nil {
		return err
	}
	defer rl.close()
	conn, err := client.Dial(rl.addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	stmts := make([]*client.Stmt, len(r.mix))
	for i := range r.mix {
		if stmts[i], err = conn.Prepare(r.mix[i].text()); err != nil {
			return err
		}
	}
	for rep := 0; rep < probeReps; rep++ {
		for i := range r.mix {
			s := &r.mix[i]
			r.tr.request()
			start := time.Now()
			if err := r.embeddedRead(db, s, &r.buf); err != nil {
				return err
			}
			embedded := time.Since(start)
			r.check("embedded probe "+s.name, r.sameAsRef(i))

			r.tr.request()
			before := rl.n.Load()
			start = time.Now()
			h := r.tr.begin("server.exec")
			rows, err := stmts[i].Query(s.args...)
			r.tr.end(h)
			if err != nil {
				return err
			}
			h = r.tr.begin("sql.drain")
			err = r.dr.drain(rows, len(rows.Columns()), s.hasConf(), true, &r.buf, r.tr)
			r.tr.end(h)
			if err != nil {
				return err
			}
			wire := time.Since(start)
			r.probe.wireBytes += rl.n.Load() - before
			r.probe.wireReads++
			r.probe.overheadMS = append(r.probe.overheadMS, ms(wire-embedded))
			r.check("wire probe "+s.name, r.sameAsRef(i))
		}
	}
	if r.w.wire {
		for rep := 0; rep < probeReps; rep++ {
			r.tr.request()
			h := r.tr.begin("sql.materialize")
			_, err := r.db.Materialize(commitRel, commitStmt.text(), commitStmt.args...)
			r.tr.end(h)
			if err != nil {
				return err
			}
			h = r.tr.begin("sql.drop")
			r.db.DropRelation(commitRel)
			r.tr.end(h)
		}
		return nil
	}
	return r.probeWireCommits()
}

// probeWireCommits times commits through a server over the workload's own
// DB, so they are logged and re-partition the shards as its commits do.
func (r *runner) probeWireCommits() error {
	addr, stop, err := r.serveProbe(r.db)
	if err != nil {
		return err
	}
	defer stop()
	conn, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	for rep := 0; rep < probeReps; rep++ {
		r.tr.request()
		h := r.tr.begin("server.commit")
		_, err := conn.Materialize(commitRel, commitStmt.text(), commitStmt.args...)
		if err == nil {
			err = conn.DropRelation(commitRel)
		}
		r.tr.end(h)
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) sameAsRef(i int) error {
	if !r.buf.identical(r.refs[i]) {
		return fmt.Errorf("answer differs from the verified reference: %s", describe(&r.buf, r.refs[i]))
	}
	return nil
}

// probeWAL appends the commit's two records (MATERIALIZE, DROP) to a log in
// the same filesystem as the data directory.
func (r *runner) probeWAL() error {
	path := filepath.Join(r.dir, "probe-wal.log")
	w, err := storage.OpenWAL(path)
	if err != nil {
		return err
	}
	mat := &storage.WALRecord{Type: storage.RecMaterialize, Res: commitRel,
		Query: commitStmt.text(), Args: []relation.Value{relation.Int(17)}}
	drop := &storage.WALRecord{Type: storage.RecDrop, Name: commitRel}
	r.tr.request()
	for i := 0; i < walProbes; i++ {
		h := r.tr.begin("storage.wal_append")
		err := w.Append(mat)
		if err == nil {
			err = w.Append(drop)
		}
		r.tr.end(h)
		if err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.probe.walBytes = float64(info.Size()) / walProbes
	return os.Remove(path)
}

// probeLoad times loading the newest snapshot alone, before a restore.
func (r *runner) probeLoad() error {
	r.tr.request()
	h := r.tr.begin("storage.load")
	defer r.tr.end(h)
	d, err := storage.OpenDir(r.data)
	if err != nil {
		return err
	}
	_, err = d.LoadLatest()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeShard partitions the committed store — the store with the commit's
// selection materialized, which is what every commit's resync partitions —
// and runs the sharded confidence of that selection.
func (r *runner) probeShard() error {
	const rel = "bench_probe"
	if _, err := r.db.Materialize(rel, commitStmt.text(), commitStmt.args...); err != nil {
		return err
	}
	defer r.db.DropRelation(rel)
	var sh *shard.Store
	for i := 0; i < probeReps; i++ {
		r.tr.request()
		h := r.tr.begin("shard.partition")
		s, err := shard.New(r.st, probeShards, shardWorkers)
		r.tr.end(h)
		if err != nil {
			return err
		}
		sh = s
	}
	for i := 0; i < probeReps; i++ {
		r.tr.request()
		h := r.tr.begin("shard.possiblep")
		_, err := sh.PossibleP(rel)
		r.tr.end(h)
		if err != nil {
			return err
		}
	}
	maxRows, total := 0, 0
	info := sh.RelInfo("R")
	for _, in := range info {
		total += in.Rows
		if in.Rows > maxRows {
			maxRows = in.Rows
		}
	}
	r.probe.rowSkew = float64(maxRows) / (float64(total) / float64(len(info)))
	return nil
}

// --- a byte-counting TCP relay -------------------------------------------------

// relay forwards loopback connections to a target and counts the bytes
// crossing it in both directions. Bytes are counted before they are
// forwarded, so once a client has its reply the count includes it.
type relay struct {
	ln     net.Listener
	target string
	n      atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &relay{ln: ln, target: target}
	rl.wg.Add(1)
	go rl.accept()
	return rl, nil
}

func (rl *relay) addr() string { return rl.ln.Addr().String() }

func (rl *relay) accept() {
	defer rl.wg.Done()
	for {
		c, err := rl.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", rl.target)
		if err != nil {
			c.Close()
			continue
		}
		rl.mu.Lock()
		rl.conns = append(rl.conns, c, s)
		rl.mu.Unlock()
		rl.wg.Add(2)
		go rl.pipe(s, c)
		go rl.pipe(c, s)
	}
}

// pipe copies src to dst until either side closes, then closes both.
func (rl *relay) pipe(dst, src net.Conn) {
	defer rl.wg.Done()
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			rl.n.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// close stops accepting, closes every relayed connection and waits for the
// relay's goroutines to end.
func (rl *relay) close() {
	rl.ln.Close()
	rl.mu.Lock()
	for _, c := range rl.conns {
		c.Close()
	}
	rl.mu.Unlock()
	rl.wg.Wait()
}
