#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first form builds `perfbench/` (a Cargo package of its own that
depends on the crates under `crates/` by path) in release mode, offline,
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
The last line of stdout is the result JSON; diagnostics go to stderr.

`--self-check` is the smoke test: it runs every workload named in
`BENCHMARK.json` cut short (`--seconds 0`, the minimum number of timed
runs), in both modes, and fails unless each run passes its correctness
checks and reports exactly the metrics `BENCHMARK.json` names for that
mode, each with its unit and a finite value.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark binary; return its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr)
    return os.path.join(target, "release", "mdn-perfbench")


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            what = f"{name} --trace {trace}"
            proc = subprocess.run(
                [binary, "--workload", name, "--seed", "2018", "--seconds", "0", "--trace", trace],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{what}: exit code {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{what}: correctness checks failed")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{what}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{what}: {m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
                elif not (isinstance(got.get("value"), (int, float)) and math.isfinite(got["value"])):
                    problems.append(f"{what}: {m['name']} has no finite value")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{what}: metrics not named in BENCHMARK.json: {sorted(extra)}")
            print(f"{what}: {len(metrics)} metrics checked", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-check"]:
        return self_check(binary)
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
