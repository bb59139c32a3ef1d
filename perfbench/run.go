package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"maybms/internal/census"
	"maybms/internal/engine"
	"maybms/internal/server"
	"maybms/internal/server/client"
	"maybms/internal/sql"
)

const (
	// setupReps set-ups run per run; setup_s is their median.
	setupReps = 3
	// restarts restarts run per run; restart_s is their median.
	restarts = 11
	// readShare of the run's seconds go to reads, the rest to commits.
	readShare = 0.6
	// Phases run whole rounds until their share of the run has elapsed and
	// at least these many operations completed, so every run has a tail.
	minReads   = 70
	minCommits = 15
	// restartLogCommits commits (plus one kept materialization) are logged
	// after the final checkpoint: the WAL every restart replays.
	restartLogCommits = 3
)

// runner executes one run of one workload.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	tr      *tracer // nil in the untraced run
	dir     string  // the run's scratch directory
	data    string  // the durable data directory of the live DB

	st    *engine.Store // the set-up store, the DB's authority until the first restart
	db    *sql.DB
	srv   *server.Server
	addr  string // the server's address
	conn  *client.Conn
	wstmt []*client.Stmt // the mix prepared on conn

	mix         []statement
	restartRead int // the mix position of the read that ends a restart
	cols        [][]string
	refs        []*answer
	commitRef   engine.Stats
	catalog     string // the catalog before the restarts

	dr  drainer
	buf answer

	// tallies
	attempted, errored, wrong int
	failures                  []string

	// measurements
	setupS, restartS      []float64
	readLat               []float64
	readStmt              []int
	readWall              time.Duration
	readAllocs, readBytes uint64
	readCPU               time.Duration
	commitLat             []float64
	commitBytes           uint64
	gcCycles              uint32
	gcPause               uint64
	heapBytes, diskBytes  int64
	calib                 []float64
	replayed              int
	readSpans             [2]int // span index range of the read phase
	planHits, planMisses  uint64
	probe                 probeTotals
	orSets                int
	chased                engine.Stats // R after the chase
}

// fail records a failed operation: wrong when its answer failed a check,
// an error otherwise.
func (r *runner) fail(wrongAnswer bool, op string, err error) {
	if wrongAnswer {
		r.wrong++
	} else {
		r.errored++
	}
	if len(r.failures) < 20 {
		r.failures = append(r.failures, op+": "+err.Error())
	}
}

// check tallies one output check.
func (r *runner) check(op string, err error) {
	r.attempted++
	if err != nil {
		r.fail(true, op, err)
	}
}

func (r *runner) run() error {
	r.mix, r.restartRead = r.w.round(r.seed)
	r.calib = append(r.calib, calibrate())
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			r.teardown()
			if err := os.RemoveAll(r.data); err != nil {
				return err
			}
		}
		r.data = filepath.Join(r.dir, fmt.Sprintf("data%d", i))
		r.tr.request()
		start := time.Now()
		if err := r.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	if err := r.references(); err != nil {
		return fmt.Errorf("reference answers: %w", err)
	}
	if err := r.checks(); err != nil {
		return fmt.Errorf("output checks: %w", err)
	}
	r.readPhase()
	r.commitPhase()
	if r.tr != nil {
		if err := r.probes(); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	if err := r.finalCheckpoint(); err != nil {
		return err
	}
	if err := r.restartPhase(); err != nil {
		return err
	}
	r.calib = append(r.calib, calibrate())
	r.heap()
	r.teardown()
	return nil
}

// --- set-up ------------------------------------------------------------------

// setup generates the store, adds noise, chases, writes the first
// snapshot, and brings up what the workload reads through.
func (r *runner) setup() error {
	h := r.tr.begin("census.generate")
	st, err := census.NewStore("R", r.w.rows, r.seed)
	r.tr.end(h)
	if err != nil {
		return err
	}
	h = r.tr.begin("census.noise")
	r.orSets, err = census.AddNoise(st, "R", r.w.density, r.seed+1)
	r.tr.end(h)
	if err != nil {
		return err
	}
	h = r.tr.begin("chase.chase")
	err = st.ChaseEGDsOpt("R", census.Dependencies(), engine.ChaseOptions{AssumeClean: true})
	r.tr.end(h)
	if err != nil {
		return err
	}
	r.chased = st.Stats("R")
	h = r.tr.begin("storage.init")
	db, err := sql.InitDir(r.data, st)
	r.tr.end(h)
	if err != nil {
		return err
	}
	r.st, r.db = st, db
	if r.w.derived {
		for _, q := range []string{"Q2", "Q3"} {
			if _, err := db.Materialize(strings.ToLower(q), census.SQL[q]); err != nil {
				return err
			}
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
	}
	return r.serve()
}

// serve turns sharding on and starts the server, as set-up and every
// restart do.
func (r *runner) serve() error {
	if r.w.shards > 0 {
		h := r.tr.begin("shard.enable")
		err := r.db.EnableSharding(r.w.shards, shardWorkers)
		r.tr.end(h)
		if err != nil {
			return err
		}
	}
	if !r.w.wire {
		return nil
	}
	h := r.tr.begin("server.start")
	defer r.tr.end(h)
	r.srv = server.New(r.db, server.Config{Logf: func(string, ...any) {}})
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	r.addr = addr.String()
	r.conn, err = client.Dial(r.addr)
	if err != nil {
		return err
	}
	r.wstmt = r.wstmt[:0]
	for i := range r.mix {
		st, err := r.conn.Prepare(r.mix[i].text())
		if err != nil {
			return err
		}
		r.wstmt = append(r.wstmt, st)
	}
	return nil
}

func (r *runner) teardown() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	if r.db != nil {
		r.db.Close()
		r.db = nil
	}
}

// --- reads and commits -------------------------------------------------------

// read runs statement i of the mix through the workload's path and drains
// its result into out.
func (r *runner) read(i int, out *answer) error {
	s := &r.mix[i]
	if r.w.wire {
		h := r.tr.begin("server.exec")
		rows, err := r.wstmt[i].Query(s.args...)
		r.tr.end(h)
		if err != nil {
			return err
		}
		h = r.tr.begin("sql.drain")
		defer r.tr.end(h)
		return r.dr.drain(rows, len(rows.Columns()), s.hasConf(), true, out, r.tr)
	}
	return r.embeddedRead(r.db, s, out)
}

// embeddedRead runs s through the session API: Prepare (a plan-cache hit
// after the first), Query, and a full drain.
func (r *runner) embeddedRead(db *sql.DB, s *statement, out *answer) error {
	h := r.tr.begin("sql.prepare")
	p, err := db.Prepare(s.text())
	r.tr.end(h)
	if err != nil {
		return err
	}
	h = r.tr.begin("sql.query")
	rows, err := p.Query(s.args...)
	r.tr.end(h)
	if err != nil {
		return err
	}
	h = r.tr.begin("sql.drain")
	defer r.tr.end(h)
	return r.dr.drain(rows, len(rows.Columns()), s.hasConf(), false, out, r.tr)
}

// checkedRead runs statement i, times it, and compares the answer with the
// verified reference.
func (r *runner) checkedRead(i int) time.Duration {
	r.attempted++
	r.tr.request()
	h := r.tr.begin("op.read:" + r.mix[i].name)
	start := time.Now()
	err := r.read(i, &r.buf)
	elapsed := time.Since(start)
	r.tr.end(h)
	if err != nil {
		r.fail(false, "read "+r.mix[i].name, err)
	} else if err := r.sameAsRef(i); err != nil {
		r.fail(true, "read "+r.mix[i].name, err)
	}
	return elapsed
}

func (r *runner) readPhase() {
	// One untimed round fills the plan cache and the arena pool.
	for i := range r.mix {
		r.checkedRead(i)
	}
	budget := time.Duration(readShare * r.seconds * float64(time.Second))
	// Each timed phase starts from a collected heap, so the garbage of the
	// checks before it does not decide when its first collections run.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	cpu0 := cpuTime()
	r.readSpans[0] = r.spanCount()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < budget || len(r.readLat) < minReads {
		for i := range r.mix {
			r.readLat = append(r.readLat, ms(r.checkedRead(i)))
			r.readStmt = append(r.readStmt, i)
		}
		if time.Since(start) > 4*budget {
			break
		}
	}
	r.readWall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	r.readSpans[1] = r.spanCount()
	r.readCPU = cpuTime() - cpu0
	r.readAllocs = ms1.Mallocs - ms0.Mallocs
	r.readBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles += ms1.NumGC - ms0.NumGC
	r.gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
	cs := r.db.CacheStats()
	r.planHits, r.planMisses = cs.Hits, cs.Misses
}

const commitRel = "bench_commit"

// commit materializes the small commit selection and drops it again.
func (r *runner) commit(res string) error {
	s := &commitStmt
	var stats engine.Stats
	if r.w.wire {
		h := r.tr.begin("server.commit")
		defer r.tr.end(h)
		var err error
		if stats, err = r.conn.Materialize(res, s.text(), s.args...); err != nil {
			return err
		}
		if err := r.conn.DropRelation(res); err != nil {
			return err
		}
	} else {
		h := r.tr.begin("sql.materialize")
		out, err := r.db.Materialize(res, s.text(), s.args...)
		r.tr.end(h)
		if err != nil {
			return err
		}
		stats = out.Stats
		h = r.tr.begin("sql.drop")
		r.db.DropRelation(res)
		r.tr.end(h)
	}
	if stats != r.commitRef {
		return errWrong{fmt.Errorf("materialized %+v, want %+v", stats, r.commitRef)}
	}
	return nil
}

// errWrong marks a commit whose result failed its check.
type errWrong struct{ error }

func (r *runner) checkedCommit() time.Duration {
	r.attempted++
	r.tr.request()
	h := r.tr.begin("op.commit")
	start := time.Now()
	err := r.commit(commitRel)
	elapsed := time.Since(start)
	r.tr.end(h)
	if err != nil {
		_, wrong := err.(errWrong)
		r.fail(wrong, "commit", err)
	}
	return elapsed
}

func (r *runner) commitPhase() {
	budget := time.Duration((1 - readShare) * r.seconds * float64(time.Second))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < budget || len(r.commitLat) < minCommits {
		r.commitLat = append(r.commitLat, ms(r.checkedCommit()))
		if time.Since(start) > 4*budget {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	r.commitBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles += ms1.NumGC - ms0.NumGC
	r.gcPause += ms1.PauseTotalNs - ms0.PauseTotalNs
}

// --- checkpoint and restarts -------------------------------------------------

// finalCheckpoint compacts the log of the commit phase into a snapshot,
// records the directory's size, and then logs the fixed commits every
// restart replays. The size therefore never depends on how many commits
// the timed phase completed.
func (r *runner) finalCheckpoint() error {
	h := r.tr.begin("storage.checkpoint")
	err := r.db.Checkpoint()
	r.tr.end(h)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	n, err := dirBytes(r.data)
	if err != nil {
		return err
	}
	r.diskBytes = n
	if r.probe.snapshotBytes, err = snapshotBytes(r.data); err != nil {
		return err
	}
	for i := 0; i < restartLogCommits; i++ {
		if err := r.commit(commitRel); err != nil {
			return fmt.Errorf("restart log: %w", err)
		}
	}
	if _, err := r.db.Materialize("bench_kept", keptStmt.text(), keptStmt.args...); err != nil {
		return fmt.Errorf("restart log: %w", err)
	}
	r.catalog = catalogOf(r.db)
	return nil
}

// restart reopens the data directory and serves it again, up to the first
// correct answer of the restart read.
func (r *runner) restart() (time.Duration, error) {
	if r.tr != nil {
		if err := r.probeLoad(); err != nil {
			return 0, err
		}
	}
	r.tr.request()
	start := time.Now()
	h := r.tr.begin("sql.restore")
	db, n, err := sql.Restore(r.data)
	r.tr.end(h)
	if err != nil {
		return 0, err
	}
	r.db, r.replayed = db, n
	if err := r.serve(); err != nil {
		return 0, err
	}
	err = r.read(r.restartRead, &r.buf)
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	if want := r.refs[r.restartRead]; !r.buf.identical(want) {
		return elapsed, errWrong{fmt.Errorf("first answer after restart differs: %s", describe(&r.buf, want))}
	}
	if got := catalogOf(r.db); got != r.catalog {
		return elapsed, errWrong{fmt.Errorf("catalog after restart:\n%s\nwant:\n%s", got, r.catalog)}
	}
	return elapsed, nil
}

func (r *runner) restartPhase() error {
	r.teardown()
	r.st = nil // the restored DB loads its own store
	for i := 0; i < restarts; i++ {
		if i > 0 {
			r.teardown()
		}
		r.attempted++
		d, err := r.restart()
		if err != nil {
			if r.db == nil {
				return fmt.Errorf("restart: %w", err)
			}
			_, wrong := err.(errWrong)
			r.fail(wrong, "restart", err)
		}
		r.restartS = append(r.restartS, d.Seconds())
	}
	return nil
}

// heap measures the live heap with the restored DB open. The benchmark's
// own large values (the clean world, the set-up store) are unreachable by
// now; the reference answers and scan buffers are small and the same in
// every run of a seed.
func (r *runner) heap() {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapBytes = int64(m.HeapAlloc)
}

// catalogOf renders the catalog: every relation with its schema and
// representation statistics.
func catalogOf(db *sql.DB) string {
	var b strings.Builder
	rels := db.Relations()
	sort.Strings(rels)
	for _, rel := range rels {
		fmt.Fprintf(&b, "%s(%s) %+v\n", rel, strings.Join(db.Schema(rel), ","), db.Stats(rel))
	}
	return b.String()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// snapshotBytes sums the sizes of the snapshot files in dir.
func snapshotBytes(dir string) (int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.mybs"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, m := range matches {
		info, err := os.Stat(m)
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate times a fixed pure-Go loop, so a slower host can be told apart
// from a slower program.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(time.Since(start))
}

var calibSink uint64

func (r *runner) spanCount() int {
	if r.tr == nil {
		return 0
	}
	return len(r.tr.spans)
}

// printStatements writes the per-statement latency of the read phase.
func (r *runner) printStatements(w io.Writer) {
	fmt.Fprintf(w, "%-22s %6s %10s %10s %8s\n", "statement", "reads", "p50_ms", "max_ms", "rows")
	for i := range r.mix {
		var lat []float64
		worst := 0.0
		for k, s := range r.readStmt {
			if s == i {
				lat = append(lat, r.readLat[k])
				worst = math.Max(worst, r.readLat[k])
			}
		}
		fmt.Fprintf(w, "%-22s %6d %10.3f %10.3f %8d\n", r.mix[i].name, len(lat), median(lat), worst, r.refs[i].rows())
	}
}

// --- reference answers and output checks -------------------------------------

// referenceDB returns the unsharded DB reference answers come from: the
// workload's own DB, or for a sharded workload a second, unsharded session
// over the same store. The returned func releases it.
func (r *runner) referenceDB() (*sql.DB, func()) {
	if r.w.shards == 0 {
		return r.db, func() {}
	}
	db := sql.Open(r.st)
	return db, func() { db.Close() }
}

// references computes each mix statement's answer once, embedded and
// unsharded. Every read of the run must return this answer byte for byte:
// wire answers must equal embedded ones, sharded answers unsharded ones.
// The checks then verify the references themselves.
func (r *runner) references() error {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	db, release := r.referenceDB()
	defer release()
	for i := range r.mix {
		s := &r.mix[i]
		p, err := db.Prepare(s.text())
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		var a answer
		if err := r.embeddedRead(db, s, &a); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.cols = append(r.cols, p.Columns())
		r.refs = append(r.refs, &a)
	}
	rows, err := db.Query(commitStmt.text(), commitStmt.args...)
	if err != nil {
		return err
	}
	r.commitRef = rows.Stats()
	return rows.Close()
}

// checks verifies the reference answers against the clean world and the
// confidence invariants, and every statement against the per-world
// reference on a small store. Each check counts as one operation.
func (r *runner) checks() error {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	db, release := r.referenceDB()
	defer release()
	clean := newCleanWorld(r.w.rows, r.seed)
	for i := range r.mix {
		s := &r.mix[i]
		want := s.clean(clean)
		if !s.hasConf() {
			r.check("clean world "+s.name, checkPlain(r.refs[i], r.cols[i], want))
			continue
		}
		var possible, certain answer
		for _, x := range []struct {
			head string
			out  *answer
		}{{"POSSIBLE", &possible}, {"CERTAIN", &certain}} {
			v := s.withHead(x.head)
			if err := r.embeddedRead(db, &v, x.out); err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
		}
		r.check("confidence "+s.name, checkConf(r.refs[i], s.head, &possible, &certain, r.cols[i], want))
	}
	var commitAns answer
	p, err := db.Prepare(commitStmt.text())
	if err != nil {
		return err
	}
	if err := r.embeddedRead(db, &commitStmt, &commitAns); err != nil {
		return err
	}
	r.check("clean world commit "+commitStmt.name, checkPlain(&commitAns, p.Columns(), commitStmt.clean(clean)))

	st, small, ws, err := smallStore(r.seed, r.w.derived)
	if err != nil {
		return err
	}
	defer small.Close()
	for _, s := range append(append([]statement(nil), r.mix...), commitStmt, keptStmt) {
		r.check("per-world "+s.name, checkWorlds(&s, st, small, ws))
	}
	return nil
}
