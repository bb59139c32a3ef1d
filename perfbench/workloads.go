package main

import (
	"fmt"
	"math/rand"
)

// workload is one set of inputs and one traffic mix. Every workload runs the
// same phases — set-up, reads, commits, restarts — with one client goroutine
// in a closed loop; what differs is the store, the path a read takes and
// the statements it reads, chosen so each workload spends its time in a
// different layer.
type workload struct {
	name    string
	rows    int
	density float64
	// shards > 0 turns sharding on at set-up and after every restart, with
	// shardWorkers workers.
	shards int
	// wire sends reads and commits through an in-process maybmsd server
	// over loopback TCP instead of the embedded session API.
	wire bool
	// derived materializes Figure 29's q2 and q3 at set-up, for Q5.
	derived bool
	// mix returns the statements of one read round. The round runs them
	// in a seeded order; the first one listed is also the read that ends
	// every restart, whatever the order.
	mix func(rng *rand.Rand) []statement
}

// shardWorkers stays at the host's two cores: no workload starts more busy
// threads than that.
const shardWorkers = 2

// The workloads and why each was chosen are listed in BENCHMARK.json and
// README.md: select-wire spends its time in the engine scan, result boxing
// and the wire; conf-embedded in the confidence stages, difference and
// join; commit-sharded in shard re-partitioning, checkpoint and restore.
var workloads = []*workload{
	{
		name:    "select-wire",
		rows:    100000,
		density: 0.001,
		wire:    true,
		mix: func(rng *rand.Rand) []statement {
			// Q1 rotates through three YEARSCH bindings within each round:
			// the PhD code of Figure 29 and two drawn from the seed.
			a := int32(rng.Intn(17))
			b := int32(rng.Intn(16))
			if b >= a {
				b++
			}
			return []statement{q1(17), q1(a), q1(b), stmtQ2, stmtQ3, stmtQ4, stmtQ6}
		},
	},
	{
		name:    "conf-embedded",
		rows:    50000,
		density: 0.005,
		derived: true,
		mix: func(rng *rand.Rand) []statement {
			return []statement{
				q1(17).withHead("CONF()"),
				stmtQ2.withHead("POSSIBLE"),
				stmtQ6.withHead("CERTAIN"),
				stmtExcept.withHead("CONF()"),
				stmtJoin.withHead("CONF()"),
			}
		},
	},
	{
		name:    "commit-sharded",
		rows:    300000,
		density: 0.001,
		shards:  4,
		mix: func(rng *rand.Rand) []statement {
			return []statement{
				q1(17).withHead("CONF()"),
				stmtQ6.withHead("POSSIBLE"),
				stmtQ2.withHead("CERTAIN"),
			}
		},
	},
}

// round returns the workload's read round in the seed's order, and the
// position in it of the read that ends every restart.
func (w *workload) round(seed int64) ([]statement, int) {
	rng := rand.New(rand.NewSource(seed))
	mix := w.mix(rng)
	out := make([]statement, len(mix))
	first := 0
	for i, j := range rng.Perm(len(mix)) {
		out[i] = mix[j]
		if j == 0 {
			first = i
		}
	}
	return out, first
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
