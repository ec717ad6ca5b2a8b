"""hoplink benchmark: one workload per fresh process, one-core BLAS.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Workloads: synth-gat-epoch, wide-k2-gat-train, wide-k1-eval (see README.md).
With ``--trace 0`` the workload runs untraced and the end-to-end metrics are
reported. With ``--trace 1`` it runs untraced and then traced, each in its own
process for half the seconds; the per-layer metrics come from the traced
run, and the tracing overhead is traced minus untraced for every end-to-end
metric. Every metric is printed by name with its unit; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The command exits non-zero when a correctness check fails or a
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("synth-gat-epoch", "wide-k2-gat-train", "wide-k1-eval")
WORKER_TIMEOUT_S = 170
# The host's speed swings by tens of percent within seconds. worker.py times
# a fixed reference before and after every pass, and every reported time is
# scaled to a host on which that reference takes REF_NOMINAL_S, a round
# figure near its 0.08 s on the 2-vCPU Xeon VM the bounds were set on.
REF_NOMINAL_S = 0.1
# BLAS/OpenMP pools pinned to one thread: hoplink's contract is one CPU core
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# checks each workload must report; the smoke check asserts they all ran
EXPECTED_CHECKS = {
    "synth-gat-epoch": {"finite_train_loss", "synth_reruns_bit_identical",
                        "synth_second_epoch_lowers_loss"},
    "wide-k2-gat-train": {"generated_counts", "finite_train_loss"},
    "wide-k1-eval": {"generated_counts", "eval_reruns_bit_identical",
                     "no_unscored_queries", "eval_matches_oracle"},
}


class BenchError(Exception):
    """A workload could not run to completion; no result is printed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               size: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ONE_THREAD},
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def calibrated(samples: list[float], ref_s: list[float]) -> list[float]:
    """Scale pass i's timing to a host on which worker.reference() takes
    REF_NOMINAL_S, using the reference timed just before and just after
    pass i (``ref_s`` holds them in that order)."""
    return [x * 2.0 * REF_NOMINAL_S / (ref_s[2 * i] + ref_s[2 * i + 1])
            for i, x in enumerate(samples)]


def end_to_end(raw: dict) -> dict[str, float]:
    pass_s = calibrated(raw["pass_s"], raw["ref_s"])
    return {
        "setup_s": statistics.median(calibrated(raw["setup_s"], raw["ref_s"])),
        "pass_s": statistics.median(pass_s),
        "queries_per_s": raw["queries"] / sum(pass_s),
        "peak_rss_mib": raw["peak_rss_mib"],
        "ok_op_frac": 1.0 - raw["failed"] / raw["attempted"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    """Run one workload and build its result. A traced run is an untraced
    and a traced worker of half the seconds each, so it takes as long as an
    untraced one."""
    if trace:
        seconds /= 2
    plain = run_worker(workload, seed, seconds, 0, size)
    raws = [plain]
    checks = dict(plain["checks"])
    metrics = end_to_end(plain)
    if trace:
        traced = run_worker(workload, seed, seconds, 1, size)
        raws.append(traced)
        for name, ok in traced["checks"].items():
            checks[name] = checks.get(name, True) and ok
        common = min(len(plain["records"]), len(traced["records"]))
        checks["trace_non_invasive"] = (
            common > 0 and plain["records"][:common] == traced["records"][:common])
        traced_e2e = end_to_end(traced)
        metrics = dict(traced["per_layer"])
        metrics.update({f"overhead.{name}": traced_e2e[name] - value
                        for name, value in end_to_end(plain).items()})
    return {"workload": workload, "raws": raws, "checks": checks,
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in raws),
            "failed": sum(r["failed"] for r in raws)}


def report(result: dict, spec: dict, trace: int) -> dict:
    """Print the human-readable table; return the contract's result line."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise BenchError(f"metric set differs from BENCHMARK.json: "
                         f"missing {missing}, unlisted {extra}")
    plain = result["raws"][0]
    print(f"workload {result['workload']} trace {trace}")
    print("env " + json.dumps(plain["env"], sort_keys=True))
    for name in ("setup_s", "pass_s"):
        wall = plain[name]
        print(f"{name} wall-clock: n={len(wall)} median={statistics.median(wall):.6f} "
              f"max={max(wall):.6f}; reference median "
              f"{statistics.median(plain['ref_s']):.6f} s")
    for m in listed:
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6f} {m['unit']}")
    for name, ok in sorted(result["checks"].items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    return {"correct": all(result["checks"].values()),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed}}


def smoke(spec: dict) -> bool:
    """Tiny sizes, minimum passes: every metric emitted, every check ran."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, seed=1, seconds=0, trace=trace,
                                  size="tiny")
            line = report(result, spec, trace)
            expected = EXPECTED_CHECKS[workload] | ({"trace_non_invasive"}
                                                    if trace else set())
            missing = expected - set(result["checks"])
            if missing or not line["correct"]:
                print(f"smoke {workload} trace {trace}: checks missing "
                      f"{sorted(missing)} or failed", file=sys.stderr)
                ok = False
    print("smoke ok" if ok else "smoke FAILED")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the output")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hoplink").is_dir():
        print(f"no hoplink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        if args.smoke:
            return 0 if smoke(spec) else 1
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        lines = [report(run_workload(name, args.seed, args.seconds, args.trace),
                        spec, args.trace) for name in names]
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(dict(zip(names, lines))))
    else:
        print(json.dumps(lines[0]))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
