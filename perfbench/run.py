#!/usr/bin/env python3
"""Build the maybms end-to-end benchmark from source and run it.

One run, from the root of the repository:

    python3 perfbench/run.py --workload select-wire --seed 42 --seconds 10 --trace 0

The last line of the output is the run's JSON result. The spread report
runs one workload k times, on seeds seed .. seed+k-1, and prints each
end-to-end metric's median, quartiles, minimum and maximum:

    python3 perfbench/run.py --spread 5 --workload conf-embedded --seconds 10

Build outputs, data directories and span files go to $CARGO_TARGET_DIR when
it is set, else to .bench_build at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(d) if d else os.path.join(ROOT, ".bench_build")


def build(bd):
    """Compile the benchmark with the module's own sources, offline, keeping
    the compiler's cache and temporary files inside the build directory."""
    for sub in ("gocache", "gotmp"):
        os.makedirs(os.path.join(bd, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
        GOCACHE=os.path.join(bd, "gocache"),
        GOTMPDIR=os.path.join(bd, "gotmp"),
        GOMODCACHE=os.path.join(bd, "gomodcache"),
    )
    exe = os.path.join(bd, "perfbench", "perfbench")
    subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env, check=True)
    return exe


def run_once(exe, bd, workload, seed, seconds, trace):
    """Run the benchmark binary once; return its stdout."""
    env = dict(os.environ, CARGO_TARGET_DIR=bd)
    argv = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       timeout=RUN_TIMEOUT_S, check=True, text=True)
    return p.stdout


def spread(exe, bd, args):
    results = []
    for k in range(args.spread):
        start = time.monotonic()
        out = run_once(exe, bd, args.workload, args.seed + k, args.seconds, 0)
        res = json.loads(out.strip().splitlines()[-1])
        # The host's own speed: the calibration loop the run times at its
        # start and end (not a metric of the program).
        calib = [float(w) for line in out.splitlines() if line.startswith("calibration loop:")
                 for w in line.split() if w.replace(".", "", 1).isdigit()]
        res["metrics"]["(host) calib_ms"] = {"value": statistics.mean(calib), "unit": "ms"}
        print(f"seed {args.seed + k}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']} in {time.monotonic() - start:.1f}s", flush=True)
        results.append(res)
    names = sorted(results[0]["metrics"])
    print(f"{'metric':<18} {'unit':<6} " + " ".join(f"{args.seed + k:>11}" for k in range(len(results))))
    for n in names:
        vals = " ".join(f"{r['metrics'][n]['value']:>11.4f}" for r in results)
        print(f"{n:<18} {results[0]['metrics'][n]['unit']:<6} {vals}")
    print()
    print(f"{'metric':<18} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for n in names:
        vals = [r["metrics"][n]["value"] for r in results]
        unit = results[0]["metrics"][n]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else float("nan")
        print(f"{n:<18} {unit:<6} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{min(vals):>12.4f} {max(vals):>12.4f} {rel:>8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spread", type=int, default=0,
                    help="run the workload this many times and print the spread of each metric")
    args = ap.parse_args()
    bd = build_dir()
    try:
        exe = build(bd)
    except subprocess.CalledProcessError as e:
        print(f"run.py: build failed with code {e.returncode}", file=sys.stderr)
        return 2
    try:
        if args.spread > 0:
            spread(exe, bd, args)
        else:
            sys.stdout.write(run_once(exe, bd, args.workload, args.seed, args.seconds, args.trace))
    except subprocess.CalledProcessError as e:
        sys.stdout.write(e.stdout or "")
        print(f"run.py: benchmark exited with code {e.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark did not finish within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
