"""Self-test of the benchmark: same seed, same inputs, same exact counts.

    python3 perfbench/selftest.py            # count and verify
    python3 perfbench/selftest.py oracle fit # any workloads

Run from the root of a hexatile checkout.  For each workload it makes two
traced runs with one seed and a third with another seed, then asserts:

- both same-seed runs pass the correctness gate and share the input hash;
- every count computed from the calls (tracing.COMPUTED) and every span
  call count is identical across the two same-seed runs;
- the other seed changes the input hash where the seed drives the inputs.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import tracing

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED, OTHER_SEED = 3, 4
SEED_FREE = {"verify"}  # fixed inputs; the seed is recorded, not used
EXACT = set(tracing.COMPUTED) | {name for name in tracing.PER_LAYER
                                 if name.endswith(".calls") or name.endswith(".attempts")}


def traced_run(workload: str, seed: int) -> tuple:
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[0])["meta"], json.loads(lines[-1])


def check(workload: str) -> list:
    problems = []
    meta1, res1 = traced_run(workload, SEED)
    meta2, res2 = traced_run(workload, SEED)
    meta3, _ = traced_run(workload, OTHER_SEED)
    for res in (res1, res2):
        if not res["correct"] or res["failed"]:
            problems.append(f"{workload}: correctness gate failed: {res['failed']} failures")
    if meta1["input_sha256"] != meta2["input_sha256"]:
        problems.append(f"{workload}: same seed, different inputs")
    if workload not in SEED_FREE and meta1["input_sha256"] == meta3["input_sha256"]:
        problems.append(f"{workload}: seeds {SEED} and {OTHER_SEED} gave the same inputs")
    m1, m2 = res1["metrics"], res2["metrics"]
    for name in sorted(EXACT):
        if name not in m1 or name not in m2:
            problems.append(f"{workload}: {name} missing")
        elif m1[name]["value"] != m2[name]["value"]:
            problems.append(f"{workload}: {name} {m1[name]['value']} != {m2[name]['value']}")
    return problems


def main(argv: list) -> int:
    problems = []
    for workload in argv or ["count", "verify"]:
        found = check(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
