// Command perfbench is the end-to-end benchmark of the maybms engine: it
// builds a census store from a seed, serves it through the session API, the
// wire server, the WAL/snapshot store and the sharding layer, runs one
// workload's reads, commits and restarts against it, checks every answer,
// and prints the workload's metrics as one JSON object on the last line of
// its output. See README.md.
//
//	perfbench --workload select-wire --seed 42 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: select-wire, conf-embedded or commit-sharded")
	seed := flag.Int64("seed", 42, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "seconds the read and commit phases measure together")
	trace := flag.Int("trace", 0, "1 records per-layer spans and prints the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildDir is where the benchmark keeps its data directories and spans.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func run(name string, seed int64, seconds float64, traced bool) error {
	w, err := workloadNamed(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	base := filepath.Join(buildDir(), "perfbench")
	dir := filepath.Join(base, fmt.Sprintf("run-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &runner{w: w, seed: seed, seconds: seconds, dir: dir}
	if traced {
		r.tr = newTracer()
	}
	if err := r.run(); err != nil {
		r.teardown()
		return err
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	fmt.Printf("workload %s seed %d: %d reads in %.2fs, %d commits, %d restarts (%d WAL records replayed), GOMAXPROCS %d\n",
		name, seed, len(r.readLat), r.readWall.Seconds(), len(r.commitLat), len(r.restartS), r.replayed, runtime.GOMAXPROCS(0))
	fmt.Printf("inputs: %d rows, density %g, %d or-sets added, after the chase %d components (%d with more than one placeholder)\n",
		w.rows, w.density, r.orSets, r.chased.NumComp, r.chased.NumCompGT1)
	fmt.Printf("calibration loop: %.1f ms at the start, %.1f ms at the end\n", r.calib[0], r.calib[len(r.calib)-1])
	_, pct := tail(append([]float64(nil), r.readLat...))
	fmt.Printf("read_tail_ms is p%.1f of %d reads\n", pct, len(r.readLat))
	r.printStatements(os.Stdout)
	e2e := r.endToEnd()
	metrics := e2e
	if traced {
		r.tr.printTable(os.Stdout)
		for _, m := range e2e {
			fmt.Printf("traced %s %.4f %s\n", m.name, m.value, m.unit)
		}
		spans := filepath.Join(base, fmt.Sprintf("spans-%s-%d.json", name, seed))
		if err := r.tr.write(spans); err != nil {
			return err
		}
		fmt.Printf("%d spans written to %s\n", len(r.tr.spans), spans)
		metrics = r.layerMetrics()
	}
	res := result{
		Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.wrong + r.errored,
		Metrics: make(map[string]metricValue, len(metrics)),
	}
	for _, m := range metrics {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd returns the metrics a user of the system sees, from the untraced
// phases.
func (r *runner) endToEnd() []metric {
	reads, commits := float64(len(r.readLat)), float64(len(r.commitLat))
	tailMS, _ := tail(append([]float64(nil), r.readLat...))
	return []metric{
		{"setup_s", "s", median(append([]float64(nil), r.setupS...))},
		{"read_qps", "1/s", reads / r.readWall.Seconds()},
		{"read_p50_ms", "ms", median(append([]float64(nil), r.readLat...))},
		{"read_tail_ms", "ms", tailMS},
		{"read_allocs", "count", float64(r.readAllocs) / reads},
		{"read_alloc_kb", "kB", float64(r.readBytes) / reads / 1e3},
		{"commit_p50_ms", "ms", median(append([]float64(nil), r.commitLat...))},
		{"commit_alloc_mb", "MB", float64(r.commitBytes) / commits / 1e6},
		{"restart_s", "s", median(append([]float64(nil), r.restartS...))},
		{"heap_mb", "MB", float64(r.heapBytes) / 1e6},
		{"disk_mb", "MB", float64(r.diskBytes) / 1e6},
	}
}

// readPhaseSpans returns the durations of the read phase's spans called
// name when the workload's own reads make such spans, and of every span so
// called otherwise (the probes'), so a metric describes the workload's path
// wherever it can.
func (r *runner) readPhaseSpans(name string) []*span {
	var out []*span
	for i := r.readSpans[0]; i < r.readSpans[1]; i++ {
		if r.tr.spans[i].Name == name {
			out = append(out, &r.tr.spans[i])
		}
	}
	if len(out) == 0 {
		return r.tr.named(name)
	}
	return out
}

func durs(ss []*span) []float64 {
	d := make([]float64, len(ss))
	for i, s := range ss {
		d[i] = s.dur()
	}
	return d
}

func meanDur(ss []*span) float64 { return mean(durs(ss)) }

func sumDur(ss []*span) float64 {
	t := 0.0
	for _, s := range ss {
		t += s.dur()
	}
	return t
}

func meanAllocs(ss []*span) (allocs, bytes float64) {
	if len(ss) == 0 {
		return 0, 0
	}
	for _, s := range ss {
		allocs += float64(s.Allocs)
		bytes += float64(s.Bytes)
	}
	return allocs / float64(len(ss)), bytes / float64(len(ss))
}

// layerMetrics returns the per-layer metrics of the traced run.
func (r *runner) layerMetrics() []metric {
	t := r.tr
	avg := func(name string) float64 { return meanDur(t.named(name)) }
	med := func(name string) float64 { return median(durs(t.named(name))) }
	allocs := func(ss []*span) float64 { a, _ := meanAllocs(ss); return a }
	p := &r.probe
	plans := float64(p.plans)
	var selAllocs uint64
	for _, s := range t.named("engine.select") {
		selAllocs += s.Allocs
	}
	exec := r.readPhaseSpans("server.exec")
	fetch := r.readPhaseSpans("server.fetch")
	query := r.readPhaseSpans("sql.query")
	drain := r.readPhaseSpans("sql.drain")
	_, partBytes := meanAllocs(t.named("shard.partition"))
	ops := float64(len(r.readLat) + len(r.commitLat))
	hitRatio := float64(r.planHits) / float64(r.planHits+r.planMisses)
	return []metric{
		{"census.generate_ms", "ms", avg("census.generate")},
		{"census.noise_ms", "ms", avg("census.noise")},
		{"chase.chase_ms", "ms", avg("chase.chase")},
		{"sql.prepare_us", "us", 1000 * med("sql.prepare")},
		{"sql.plan_cache_hit_ratio", "ratio", hitRatio},
		{"sql.query_ms", "ms", meanDur(query)},
		{"sql.query_allocs", "count", allocs(query)},
		{"sql.drain_ms", "ms", meanDur(drain)},
		{"sql.drain_allocs", "count", allocs(drain)},
		{"sql.materialize_ms", "ms", avg("sql.materialize")},
		{"sql.drop_ms", "ms", avg("sql.drop")},
		{"sql.restore_ms", "ms", avg("sql.restore")},
		{"sql.replayed_records", "count", float64(r.replayed)},
		{"engine.snapshot_us", "us", 1000 * med("engine.snapshot")},
		{"engine.select_ms", "ms", sumDur(t.named("engine.select")) / plans},
		{"engine.select_allocs", "count", float64(selAllocs) / plans},
		{"engine.rows_out_per_scanned", "ratio", float64(p.kept) / float64(p.scanned)},
		{"engine.conf_ms", "ms", avg("engine.conf")},
		{"engine.conf_allocs", "count", allocs(t.named("engine.conf"))},
		{"engine.difference_ms", "ms", avg("engine.difference")},
		{"engine.join_ms", "ms", avg("engine.join")},
		{"engine.components_out", "count", float64(p.comps) / plans},
		{"server.exec_ms", "ms", meanDur(exec)},
		{"server.fetch_ms", "ms", sumDur(fetch) / float64(len(exec))},
		{"server.fetch_rounds", "count", float64(len(fetch)) / float64(len(exec))},
		{"server.wire_overhead_ms", "ms", mean(p.overheadMS)},
		{"server.bytes_per_read", "B", float64(p.wireBytes) / float64(p.wireReads)},
		{"server.commit_ms", "ms", avg("server.commit")},
		{"storage.wal_append_ms", "ms", avg("storage.wal_append")},
		{"storage.wal_bytes_per_commit", "B", p.walBytes},
		{"storage.checkpoint_ms", "ms", avg("storage.checkpoint")},
		{"storage.snapshot_mb", "MB", float64(p.snapshotBytes) / 1e6},
		{"storage.load_ms", "ms", med("storage.load")},
		{"storage.replay_ms", "ms", med("sql.restore") - med("storage.load")},
		{"shard.partition_ms", "ms", avg("shard.partition")},
		{"shard.partition_alloc_mb", "MB", partBytes / 1e6},
		{"shard.possiblep_ms", "ms", avg("shard.possiblep")},
		{"shard.row_skew", "ratio", p.rowSkew},
		{"runtime.gc_cycles_per_op", "count", float64(r.gcCycles) / ops},
		{"runtime.gc_pause_ms", "ms", float64(r.gcPause) / 1e6 / ops},
		{"runtime.cpu_per_read_ms", "ms", ms(r.readCPU) / float64(len(r.readLat))},
		{"runtime.calib_ms", "ms", mean(r.calib)},
	}
}
