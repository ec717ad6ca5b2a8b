"""Run one benchmark workload in this process and print its raw result.

Usage (normally started by run.py, which sets BLAS/OpenMP threads to 1):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --size full|tiny

The workload repeats passes until ``--seconds`` have elapsed (at least
MIN_PASSES). A pass is a fresh set-up (timed as one ``setup_s`` sample)
followed by one timed call of the workload's job. The last stdout line is a
JSON object that run.py turns into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import mmap
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hoplink  # noqa: E402
from hoplink import autodiff as ad  # noqa: E402
from hoplink.config import RunConfig  # noqa: E402
from hoplink.evaluation import evaluate  # noqa: E402
from hoplink.kg import (  # noqa: E402
    KnowledgeGraph,
    TransductiveWarning,
    add_inverse_relations,
    queries_both_directions,
)
from hoplink.model import KgcModel, eval_neighborhood_seed, load_model, save_model  # noqa: E402
from hoplink.seeding import derive_rng, derive_seed  # noqa: E402
from hoplink.synth import generate_synthetic_kg  # noqa: E402
from hoplink.text import build_vocab  # noqa: E402
from hoplink.training import DegenerateBatchError, DivergenceError, Trainer  # noqa: E402

from tracer import Tracer  # noqa: E402
from widegraph import generate_wide_kg  # noqa: E402

MIN_PASSES = 4                # VARIANTS + 1, so every run repeats a variant
OUT_DIR = BENCH_DIR / "out"

# the README walkthrough's demo.cfg
SYNTH_CONFIG = dict(dim=32, encoder="gat", heads=2, k=1, lambda_weight=0.2,
                    batch_size=64, lr=0.01, tau=0.05)
WIDE_CONFIG = dict(dim=64, encoder="gat", heads=3, layers=2, cap_per_hop=32,
                   lambda_weight=0.2, batch_size=32)
STEPS_PER_PASS = 3            # wide-k2-gat-train batches per train_epochs call
# training passes cycle through this many seeded variants (run seeds on
# synth-gat-epoch, query samples on wide-k2-gat-train): a run averages over
# several batchings, and with MIN_PASSES >= VARIANTS every run sees the same
# batches, so peak memory does not depend on speed
VARIANTS = 3
ORACLE_QUERIES = 200          # wide-k1-eval queries checked against the oracle

WIDE_SIZES = {
    "full": dict(entities=5_000, triples=40_000, relations=20, held_out=500),
    "tiny": dict(entities=300, triples=2_400, relations=20, held_out=30),
}


class Run:
    """Timings, op counts and checks of one workload run."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.pass_s: list[float] = []
        self.ref_s: list[float] = []
        self.queries = 0
        self.attempted = 0
        self.failed = 0
        self.failed_steps = 0
        self.unscored = 0
        self.records: list[dict] = []
        self.checks: dict[str, bool] = {}
        self.valid_mrr = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    def timed(self, samples: list[float], fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            samples.append(time.perf_counter() - start)

    def loop(self, seconds: float, setup, job) -> None:
        """Passes until ``seconds`` have elapsed and MIN_PASSES are done.

        ``setup(index)`` builds the pass's state and ``job(state, index)``
        makes the pass's timed call. Spans are
        recorded only inside passes, so input generation and the
        correctness checks stay out of the per-layer numbers.
        """
        start = time.perf_counter()
        index = 0
        while len(self.pass_s) < MIN_PASSES or time.perf_counter() - start < seconds:
            # every pass starts from the same heap state: the previous pass's
            # garbage would otherwise be scanned inside this pass's timings
            gc.collect()
            self.timed(self.ref_s, reference)
            if self.tracer is not None:
                self.tracer.active = True
            try:
                job(self.timed(self.setup_s, lambda: setup(index)), index)
            finally:
                if self.tracer is not None:
                    self.tracer.active = False
            self.timed(self.ref_s, reference)
            index += 1


_REF_SMALL = np.random.default_rng(0).random((100, 100))
_REF_LARGE = np.random.default_rng(1).random(2_000_000)
_PAGE = 4096


def reference() -> None:
    """Fixed interpreter, BLAS, memory-bandwidth and page-fault work that
    never calls hoplink; its time tracks the host's speed at this moment.
    Page faults are in the mix because hoplink's dense batches fault in
    fresh pages all the time (about a sixth of a synth epoch is system
    time)."""
    total = 0
    for i in range(400_000):
        total += i * i
    for _ in range(30):
        _REF_SMALL @ _REF_SMALL
    for _ in range(4):
        _REF_LARGE * 2.0 + 1.0
    for _ in range(2):
        with mmap.mmap(-1, 2048 * _PAGE) as fresh:
            np.frombuffer(fresh, dtype=np.uint8)[::_PAGE] = 1


def build_kg(splits, texts) -> KnowledgeGraph:
    with warnings.catch_warnings():
        warnings.simplefilter("error", TransductiveWarning)
        return KnowledgeGraph.build(splits, texts)


def unseen_count(kg: KnowledgeGraph, split: str) -> int:
    return sum(kg.query_is_unseen(q.head, q.relation)
               for q in queries_both_directions(kg, split))


def consumed_queries(count: int, batch: int) -> int:
    """Training queries train_epochs uses: a final batch of one is skipped."""
    return count - 1 if count % batch == 1 else count


def check_counts(run: Run, splits, texts, sizes: dict) -> None:
    relations = {r for rows in splits.values() for _, r, _ in rows}
    run.check("generated_counts",
              len(texts) == sizes["entities"]
              and sum(len(rows) for rows in splits.values()) == sizes["triples"]
              and len(relations) == sizes["relations"]
              and len(splits["valid"]) == len(splits["test"]) == sizes["held_out"])


def train_pass(run: Run, trainer: Trainer) -> None:
    """One timed train_epochs(1) call; a raise fails every op of the pass."""
    kg = trainer.kg
    batch = trainer.config.batch_size
    batches = math.ceil(len(trainer.queries) / batch)
    # train_epochs ranks the valid split after the epoch when there is one
    has_valid = bool(kg.splits.get("valid"))
    ops = batches + (len(queries_both_directions(kg, "valid")) if has_valid else 0)
    run.attempted += ops
    try:
        records = run.timed(run.pass_s, lambda: trainer.train_epochs(1))
    except (DivergenceError, DegenerateBatchError):
        traceback.print_exc()
        run.failed += ops
        run.failed_steps += batches
        return
    run.queries += consumed_queries(len(trainer.queries), batch)
    if has_valid:
        unseen = unseen_count(kg, "valid")
        run.failed += unseen
        run.unscored += unseen
    run.records.extend(records)
    run.check("finite_train_loss",
              all(math.isfinite(r["train_loss"]) for r in records))


# -- workloads ----------------------------------------------------------------

def synth_gat_epoch(run: Run, seed: int, seconds: float, size: str) -> None:
    """Whole epochs of the bundled synthetic graph with demo.cfg settings.

    Pass i trains a fresh trainer for one epoch with run seed variant
    i % VARIANTS, so pass i must repeat pass i - VARIANTS bit for bit.
    """
    splits, texts = generate_synthetic_kg(seed)
    configs = [RunConfig(seed=derive_seed(seed, f"bench:run:{v}"), **SYNTH_CONFIG)
               for v in range(VARIANTS)]

    def setup(index: int) -> Trainer:
        return Trainer(build_kg(splits, texts), configs[index % VARIANTS])

    trainers: list[Trainer] = []

    def job(trainer: Trainer, index: int) -> None:
        train_pass(run, trainer)
        trainers[:] = [trainer]

    run.loop(seconds, setup, job)
    records = run.records
    run.check("synth_reruns_bit_identical",
              all(r == records[i % VARIANTS] for i, r in enumerate(records)))
    # learning guard, untimed: a second epoch must lower the mean loss
    trainer = trainers[0]
    second = trainer.train_epochs(1)[0]
    run.check("synth_second_epoch_lowers_loss",
              second["train_loss"] < trainer.history[0]["train_loss"])
    run.valid_mrr = sum(r["valid_mrr"] for r in records[:VARIANTS]) / VARIANTS


def wide_k2_gat_train(run: Run, seed: int, seconds: float, size: str) -> None:
    """Fixed-size train_epochs calls on the wide graph at k=2.

    The graph is built from the train split only, so train_epochs runs no
    per-epoch valid eval. Pass i trains a fresh trainer on seeded sample
    i % VARIANTS of STEPS_PER_PASS batches.
    """
    sizes = WIDE_SIZES[size]
    splits, texts = generate_wide_kg(seed, **sizes)
    check_counts(run, splits, texts, sizes)
    config = RunConfig(seed=seed, k=2, **WIDE_CONFIG)

    def setup(index: int) -> Trainer:
        return Trainer(build_kg({"train": splits["train"]}, texts), config)

    def job(trainer: Trainer, index: int) -> None:
        pick = derive_rng(seed, f"bench:sample:{index % VARIANTS}").choice(
            len(trainer.queries), size=STEPS_PER_PASS * config.batch_size,
            replace=False)
        trainer.queries = [trainer.queries[i] for i in sorted(pick)]
        train_pass(run, trainer)

    run.loop(seconds, setup, job)


def wide_k1_eval(run: Run, seed: int, seconds: float, size: str) -> None:
    """Filtered evaluate over both directions of the valid split with a
    seeded-init k=1 GAT model that was saved and reloaded."""
    sizes = WIDE_SIZES[size]
    splits, texts = generate_wide_kg(seed, **sizes)
    check_counts(run, splits, texts, sizes)
    config = RunConfig(seed=seed, k=1, **WIDE_CONFIG)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path = Path(tmp) / "model.ckpt"
        prep_kg = build_kg(splits, texts)
        tokenizer = build_vocab(prep_kg, min_frequency=config.min_frequency,
                                max_len=config.max_len)
        save_model(path, KgcModel(config, tokenizer))
        del prep_kg

        def setup(index: int):
            kg = build_kg(splits, texts)
            add_inverse_relations(kg)
            return kg, load_model(path)

        def job(state, index: int) -> None:
            kg, model = state
            count = len(queries_both_directions(kg, "valid"))
            run.attempted += count
            try:
                metrics = run.timed(run.pass_s, lambda: evaluate(model, kg, "valid"))
            except Exception:
                traceback.print_exc()
                run.failed += count
                return
            unseen = unseen_count(kg, "valid")
            run.failed += unseen
            run.unscored += unseen
            run.queries += metrics.count
            run.records.append({"mrr": metrics.mrr})

        run.loop(seconds, setup, job)
        kg, model = setup(0)

    run.check("eval_reruns_bit_identical",
              all(r == run.records[0] for r in run.records))
    run.check("no_unscored_queries", run.unscored == 0)
    m = min(ORACLE_QUERIES, len(queries_both_directions(kg, "valid")))
    run.check("eval_matches_oracle",
              evaluate(model, kg, "valid", max_queries=m).mrr
              == oracle_mrr(model, kg, splits, m))
    run.valid_mrr = run.records[0]["mrr"]


def oracle_mrr(model: KgcModel, kg: KnowledgeGraph, splits, m: int) -> float:
    """Brute-force filtered MRR over the first m valid queries.

    Queries and the filter sets come from the raw label triples, not from
    hoplink's query list or filter index. Scores are cosines of the model's
    query vector against every tail row; every other known-true tail is
    dropped and ties with the gold count against it.
    """
    ent, rel = kg.entity_ids, kg.relation_ids
    offset = kg.num_base_relations
    known: dict[tuple[int, int], set[int]] = {}
    queries = []
    for name, rows in splits.items():
        for h, r, t in rows:
            hi, ri, ti = ent[h], rel[r], ent[t]
            known.setdefault((hi, ri), set()).add(ti)
            known.setdefault((ti, ri + offset), set()).add(hi)
            if name == "valid":
                queries += [(hi, ri, ti), (ti, ri + offset, hi)]
    tails, _ = model.tail_matrix(kg)
    ranks = []
    for i, (h, r, t) in enumerate(queries[:m]):
        with ad.no_grad():
            batch = model.encode_queries(
                kg, [(h, r)], [eval_neighborhood_seed(model.config.seed, "valid", i)])
        vec = batch.e_hr.values[0]
        norm = np.linalg.norm(vec)
        vec = vec / norm if norm > 1e-12 else np.zeros_like(vec)
        scores = tails @ vec
        rank = 1
        for e in range(kg.num_entities):
            if e != t and e not in known[(h, r)] and scores[e] >= scores[t]:
                rank += 1
        ranks.append(rank)
    return float(np.mean(1.0 / np.array(ranks, dtype=np.float64)))


WORKLOADS = {
    "synth-gat-epoch": synth_gat_epoch,
    "wide-k2-gat-train": wide_k2_gat_train,
    "wide-k1-eval": wide_k1_eval,
}


# -- environment ---------------------------------------------------------------

def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        revision = ref
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WIDE_SIZES), default="full")
    args = parser.parse_args(argv)

    if Path(hoplink.__file__).resolve().parent != ROOT / "src" / "hoplink":
        print(f"hoplink imported from {hoplink.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    run = Run(tracer)
    workload = WORKLOADS[args.workload]
    if tracer is None:
        workload(run, args.seed, args.seconds, args.size)
    else:
        with tracer.instrument():
            workload(run, args.seed, args.seconds, args.size)

    result = {
        "workload": args.workload,
        "env": environment(args.seed),
        "setup_s": run.setup_s,
        "pass_s": run.pass_s,
        "ref_s": run.ref_s,
        "queries": run.queries,
        "attempted": run.attempted,
        "failed": run.failed,
        "records": run.records,
        "checks": run.checks,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        passes = len(run.pass_s)
        result["per_layer"] = tracer.layer_metrics(passes, {
            "training.failed_steps": run.failed_steps / passes,
            "evaluation.unscored_queries": run.unscored / passes,
            "evaluation.valid_mrr": run.valid_mrr,
        })
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
