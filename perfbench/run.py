#!/usr/bin/env python3
"""Repository benchmark driver.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; `--workload all` runs every workload in
turn. Builds the `exsel-perfbench` package
(perfbench/Cargo.toml, outside the workspace) into $CARGO_TARGET_DIR
(default perfbench/target), runs the workload in its own process, and
prints a human-readable summary followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
`setup_s` is the median over 3 to 9 processes: the measured one plus as
many set-up-only ones as fit in SETUP_BUDGET_S. With --trace 1 they are the per-layer metrics:
the binary records spans around every call into a layer and writes them
to <target>/perfbench-traces/. A per-layer metric that does not apply to
the workload reads 0; layers.json names, for each one, the workloads it
must be measured on and the end-to-end metric it should move.

Determinism tripwire: every deterministic value (op counts, step
quantiles, phase and explore counts) must repeat bit for bit for one
seed. The set-up values are compared across the processes of one run,
and the whole-run values against the last run of the same binary, seed
and length, kept under <target>/perfbench-runs/. A mismatch on the same
binary marks the run incorrect; against an earlier build it is reported
as a behaviour change.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_BUDGET_S = 8.0
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole
    group (cargo leaves rustc children) and waits for it. Returns
    (exit code, stdout)."""
    try:
        proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    except OSError as e:
        fail(f"cannot start {cmd[0]}: {e}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    code, _ = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed with exit code {code}")
    return os.path.join(target, "release", "exsel-perfbench")


def run_binary(binary, argv, deadline):
    """Runs the binary to completion and returns its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(argv))
    code, out = run([binary] + argv, remaining, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"exit code {code}: " + " ".join(argv))
    return json.loads(lines[-1])


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_determinism(target, binary, workload, args, det):
    """Compares `det` with the last recorded run of this seed and length.
    Returns the problems that make the run incorrect."""
    store = os.path.join(target, "perfbench-runs")
    os.makedirs(store, exist_ok=True)
    key = f"{workload}-seed{args.seed}-sec{args.seconds:g}.json"
    path = os.path.join(store, key)
    this = {"binary": file_digest(binary), "det": det}
    problems = []
    if os.path.exists(path):
        last = load_json(path)
        changed = sorted(k for k in set(det) | set(last["det"])
                         if det.get(k) != last["det"].get(k))
        if changed:
            detail = ", ".join(f"{k}: {last['det'].get(k)} -> {det.get(k)}"
                               for k in changed[:8])
            if last["binary"] == this["binary"]:
                problems.append(f"nondeterministic on one binary: {detail}")
            else:
                print(f"behaviour change since the previous build: {detail}")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(this, f, sort_keys=True)
    os.replace(tmp, path)
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        fail(f"unknown workload {args.workload}")
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(HERE, "target"))
    binary = build(target)
    for workload in workloads:
        measure(workload, args, spec, target, binary)


def measure(workload, args, spec, target, binary):
    """Runs one workload and prints its summary and result line."""
    layers = load_json(os.path.join(HERE, "layers.json"))
    deadline = time.monotonic() + RUN_BUDGET_S

    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(target, "perfbench-traces",
                             f"{workload}-seed{args.seed}.jsonl")
        argv += ["--trace-out", spans]
    main_run = run_binary(binary, argv, deadline)
    runs = [main_run]
    if not args.trace:
        samples = min(9, max(3, int(SETUP_BUDGET_S / main_run["setup_s"])))
        for _ in range(samples - 1):
            runs.append(run_binary(binary, argv + ["--setup-only"], deadline))

    problems = list(dict.fromkeys(main_run["audit"]))
    for r in runs[1:]:
        if r["setup_det"] != main_run["setup_det"]:
            problems.append(f"set-up differs between processes: "
                            f"{main_run['setup_det']} vs {r['setup_det']}")
    problems += check_determinism(target, binary, workload, args,
                                  dict(main_run["det"], **main_run["setup_det"]))

    layer = main_run["layer"]
    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        required = {m["name"] for m in layers if workload in m["on"]}
        missing = sorted(required - set(layer))
        if missing:
            fail(f"{workload} did not measure {', '.join(missing)}")
        values = {name: layer.get(name, 0.0) for name, _ in names}
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "units_per_s": main_run["units"] / main_run["measure_s"],
            "served_share": main_run["served_share"],
            "rss_peak_mb": main_run["rss_peak_mb"],
        }
        if set(values) != {n for n, _ in names}:
            fail("end-to-end metrics of BENCHMARK.json and run.py disagree")

    broken = [n for n, _ in names if not isinstance(values[n], (int, float))
              or not math.isfinite(values[n])]
    if broken:
        fail(f"no finite value for {', '.join(broken)}")

    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {main_run['units']} units in {main_run['measure_s']:.3f} s")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = names if args.trace else names + [(n, units.get(n, "")) for n in sorted(layer)]
    for name, unit in shown:
        value = values.get(name, layer.get(name))
        if value is not None:
            print(f"  {name:48} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"  AUDIT FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
