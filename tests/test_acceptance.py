"""Shipping gate: one test per release criterion, one verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdicts. Criterion 1
needs the public benchmark datasets on disk (set HOPLINK_DATASETS or drop them
under datasets/) and skips honestly when they are absent; everything else is
self-contained and CPU-cheap.
"""

import inspect
import json
import os
import re
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hoplink.autodiff as ad
import hoplink.model
from hoplink.autodiff import Tensor, finite_diff_check
from hoplink.cli import main
from hoplink.config import RunConfig
from hoplink.evaluation import RankingMetrics, evaluate
from hoplink.gnn import GraphBatch, GraphEncoder
from hoplink.kg import KnowledgeGraph, khop_neighborhood
from hoplink.model import KgcModel, eval_neighborhood_seed
from hoplink.synth import write_synthetic_dataset
from hoplink.text import build_vocab
from hoplink.training import Trainer, combined_loss, info_nce_loss
from hoplink.vgae import EdgeMask, Vgae, VgaeState, edge_loss, mask_edges, \
    reparameterize, visible_graph

REPO = Path(__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent


def verdict(criterion: int, message: str) -> None:
    print(f"\ncriterion {criterion}: PASS — {message}")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("accept") / "synth"
    write_synthetic_dataset(out, seed=0)
    return out


def write_config(path: Path, dataset_dir: Path, out_dir: Path, **extra) -> Path:
    values = dict(dataset_dir=str(dataset_dir), out_dir=str(out_dir),
                  dim=12, heads=2, epochs=1, batch_size=64, k=1, seed=3)
    values.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


# ---------------------------------------------------------------------------
# 1. Dataset fidelity: exact entity/relation/split counts on the public
#    benchmarks, under a minute. Skips when the distributions are not on disk.
# ---------------------------------------------------------------------------

BENCHMARKS = {
    "WN18RR": dict(entities=40_943, relations=11,
                   train=86_835, valid=3_034, test=3_134),
    "FB15k-237": dict(entities=14_541, relations=237,
                      train=272_115, valid=17_535, test=20_466),
}


def find_benchmark(name: str) -> Path | None:
    roots = []
    if os.environ.get("HOPLINK_DATASETS"):
        roots.append(Path(os.environ["HOPLINK_DATASETS"]))
    roots += [REPO / "datasets", Path("/root/datasets"), Path("/root/data")]
    for root in roots:
        candidate = root / name
        if (candidate / "train.txt").exists():
            return candidate
    return None


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_criterion_1_dataset_fidelity(name, tmp_path, capsys):
    dataset = find_benchmark(name)
    if dataset is None:
        pytest.skip(f"criterion 1: {name} not on disk (set HOPLINK_DATASETS "
                    "or place it under datasets/) — not exercised, not gamed")
    start = time.monotonic()
    assert main(["preprocess", "--dataset-dir", str(dataset),
                 "--out-dir", str(tmp_path / name)]) == 0
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    counts = {key: int(m.group(1)) for key in BENCHMARKS[name]
              if (m := re.search(rf"^{key}=(\d+)$", out, re.M))}
    assert counts == BENCHMARKS[name]
    assert elapsed < 60.0, f"preprocess took {elapsed:.1f}s"
    verdict(1, f"{name} counts match exactly ({counts}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Gradient correctness: finite differences agree with the tape on every
#    primitive, every encoder variant, both losses, and the full combined
#    objective — max relative error < 1e-4 at double precision, n <= 6,
#    d <= 8, under a minute.
# ---------------------------------------------------------------------------

def small_graph(n: int = 5, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for _ in range(2 * n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            A[i, j] = 1.0
    return A


def primitive_cases() -> list[tuple[str, object, np.ndarray]]:
    rng = np.random.default_rng(17)
    m34 = rng.normal(size=(3, 4))
    safe = m34 + np.sign(m34) * 0.2  # keep clear of relu/clamp kinks
    pos = np.abs(m34) + 0.5
    c43 = ad.constant(rng.normal(size=(4, 3)))
    c34 = ad.constant(rng.normal(size=(3, 4)))
    bag = sp.csr_matrix((np.ones(4), ([0, 0, 1, 2], [0, 2, 1, 2])),
                        shape=(3, 3))
    s = np.array([1.7])
    graph = GraphBatch(np.argwhere(small_graph() > 0), [5])
    cut = graph.readout_rows(graph.pattern, np.array([3, 0, 3]))
    # 3 positives and 2 negatives over 3 rows, a pair repeated and a
    # self-pair; x feeds one input, the others are constants
    pairs = np.array([[0, 1], [2, 0], [1, 1], [0, 1], [2, 1]])
    objective = dict(pairs=pairs, sign=np.array([[-1.0]] * 3 + [[1.0]] * 2),
                     pair_weight=rng.uniform(0.1, 0.5, size=(5, 1)),
                     row_weight=rng.uniform(0.1, 0.5, size=(3, 1)), offset=-0.3)
    mu, log_sigma, z = (ad.constant(rng.normal(size=(3, 2)) * 0.8)
                        for _ in range(3))
    return [
        ("matmul", lambda x: ad.sum_all(ad.matmul(x, c43)), m34),
        ("sparse_matmul",
         lambda x: ad.sum_all(ad.sparse_matmul(bag, x)),
         rng.normal(size=(3, 4))),
        ("transpose", lambda x: ad.sum_all(ad.matmul(ad.transpose(x), c34)),
         m34),
        ("add", lambda x: ad.sum_all(ad.hadamard(ad.add(x, c34), c34)), m34),
        ("hadamard", lambda x: ad.sum_all(ad.hadamard(x, x)), m34),
        ("scale", lambda x: ad.sum_all(ad.scale(x, -2.5)), m34),
        ("scale_by(x)", lambda x: ad.sum_all(ad.scale_by(x, ad.constant(s))),
         m34),
        ("scale_by(s)", lambda x: ad.sum_all(ad.scale_by(c34, x)), s),
        ("relu", lambda x: ad.sum_all(ad.relu(x)), safe),
        ("leaky_relu", lambda x: ad.sum_all(ad.leaky_relu(x, 0.1)), safe),
        ("exp", lambda x: ad.sum_all(ad.exp(x)), m34),
        ("clamp", lambda x: ad.sum_all(ad.clamp(x, -5.0, 5.0)), safe),
        ("log_softmax_rows",
         lambda x: ad.sum_all(ad.hadamard(ad.log_softmax_rows(x), c34)), m34),
        ("sum_all", lambda x: ad.sum_all(x), m34),
        ("concat_cols",
         lambda x: ad.sum_all(ad.hadamard(
             ad.concat_cols([x, ad.scale(x, 2.0)]),
             ad.constant(np.arange(24.).reshape(3, 8)))),
         m34),
        ("concat_rows",
         lambda x: ad.sum_all(ad.hadamard(
             ad.concat_rows([x, ad.scale(x, -1.0)]),
             ad.constant(np.arange(24.).reshape(6, 4)))),
         m34),
        ("gather_rows",
         lambda x: ad.sum_all(ad.hadamard(
             ad.gather_rows(x, [0, 2, 2, 1]),
             ad.constant(np.arange(16.).reshape(4, 4)))),
         m34),
        # unequal lengths, an empty sequence and two heads; x feeds q, k
        # and v so every input's gradient is checked
        ("sequence_attention",
         lambda x, wk=ad.constant(rng.normal(size=(4, 4))),
         wv=ad.constant(rng.normal(size=(4, 4))): ad.sum_all(ad.hadamard(
             ad.sequence_attention(x, ad.matmul(x, wk), ad.matmul(x, wv),
                                   [2, 0, 3, 1], 2),
             ad.constant(np.arange(24.).reshape(6, 4) / 10))),
         rng.normal(size=(6, 4))),
        ("l2_normalize_rows",
         lambda x: ad.sum_all(ad.hadamard(ad.l2_normalize_rows(x), c34)),
         pos),
        # two heads over blocks of x on a 5-node graph's edges ...
        ("edge_attention(x)",
         lambda x, s=ad.constant(rng.normal(size=(5, 8))): ad.sum_all(
             ad.hadamard(ad.edge_attention(x, s, graph.pattern, graph.dst,
                                           [slice(0, 1), slice(1, 4)])[0],
                         ad.constant(np.arange(20.).reshape(5, 4) / 10))),
         rng.normal(size=(5, 4))),
        # ... and three heads that share x, over the edges into rows 3, 0, 3
        ("edge_attention(scores)",
         lambda s, x=ad.constant(rng.normal(size=(5, 2))): ad.sum_all(
             ad.hadamard(ad.edge_attention(
                 x, s, cut, np.repeat([3, 0, 3], np.diff(cut.indptr)),
                 [slice(None)] * 3)[0],
                 ad.constant(np.arange(18.).reshape(3, 6) / 10))),
         rng.normal(size=(5, 6))),
        ("vgae_objective(mu)",
         lambda x: ad.vgae_objective(x, log_sigma, z, **objective),
         rng.normal(size=(3, 2))),
        ("vgae_objective(log_sigma)",
         lambda x: ad.vgae_objective(mu, x, z, **objective),
         rng.normal(size=(3, 2)) * 0.8),
        ("vgae_objective(z)",
         lambda x: ad.vgae_objective(mu, log_sigma, x, **objective),
         rng.normal(size=(3, 2))),
    ]


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    worst: dict[str, float] = {}

    for name, f, values in primitive_cases():
        x = ad.parameter(np.array(values, dtype=float))
        err = finite_diff_check(f, x)
        assert err < 1e-4, f"primitive {name}: max relative error {err:.2e}"
        worst[name] = err

    A = small_graph()
    graph = GraphBatch(np.argwhere(A > 0), [len(A)])
    rng = np.random.default_rng(31)
    X0 = rng.normal(size=(5, 4)) * 0.7
    for variant in ("gcn", "sage", "gat"):
        enc = GraphEncoder(
            RunConfig(encoder=variant, layers=2, dim=4, heads=2),
            np.random.default_rng(12))

        def f_enc(x, enc=enc):
            return ad.sum_all(enc.encode(x, graph, [0, 3]))

        err = finite_diff_check(f_enc, ad.parameter(X0.copy()))
        assert err < 1e-4, f"{variant} encoder: max relative error {err:.2e}"
        worst[variant] = err

    tails = ad.constant(rng.normal(size=(4, 4)) + 0.3)

    def f_nce(x):
        return info_nce_loss(x, tails, inv_tau=5.0)

    err = finite_diff_check(f_nce, ad.parameter(rng.normal(size=(4, 4)) + 0.2))
    assert err < 1e-4, f"InfoNCE: max relative error {err:.2e}"
    worst["info_nce"] = err

    vgae = Vgae(4, 3, np.random.default_rng(8))
    mask = mask_edges(graph, 0.3, 5)
    assert not mask.empty
    visible = visible_graph(graph, mask)

    def f_vgae(x):
        state = vgae.encode(x, visible)
        z = reparameterize(state, seed=11)
        return edge_loss(state, z, mask, visible)

    err = finite_diff_check(f_vgae, ad.parameter(X0.copy()))
    assert err < 1e-4, f"edge loss: max relative error {err:.2e}"
    worst["edge_loss"] = err

    err = combined_gradient_error()
    assert err < 1e-4, f"combined loss: max relative error {err:.2e}"
    worst["combined"] = err

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    top = max(worst.items(), key=lambda kv: kv[1])
    verdict(2, f"{len(worst)} checks < 1e-4 (worst {top[0]} at {top[1]:.1e}) "
               f"in {elapsed:.1f}s")


def taped_primitives() -> set[str]:
    """The public functions of ``hoplink.autodiff`` that record on the tape."""
    taped = {name for name, fn in vars(ad).items()
             if inspect.isfunction(fn) and fn.__module__ == ad.__name__
             and not name.startswith("_") and "_apply(" in inspect.getsource(fn)}
    assert {"matmul", "sparse_matmul", "edge_attention"} <= taped
    return taped


def test_criterion_2_covers_every_taped_primitive():
    """Every function of ``hoplink.autodiff`` that records on the tape has a
    finite-difference case above, named after it."""
    covered = {name.split("(")[0] for name, _, _ in primitive_cases()}
    assert taped_primitives() - covered == set()


def test_every_taped_primitive_has_a_caller_in_src():
    """Every taped primitive is used, as ``ad.<name>``, by another module of
    the package, so none is kept alive by its tests alone."""
    package = Path(ad.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "autodiff.py":
            used |= set(re.findall(r"\bad\.(\w+)", path.read_text()))
    assert taped_primitives() - used == set()


def combined_gradient_error() -> float:
    """Differentiate the full objective on one 5-node neighborhood batch."""
    from conftest import dozen_graph

    kg = dozen_graph()
    config = RunConfig(dim=4, encoder="gat", heads=2, layers=2, k=1,
                       cap_per_hop=4, lambda_weight=0.5, tau=0.1,
                       learn_tau=True, seed=2).validate()
    model = KgcModel(config, build_vocab(kg))
    pairs = [(0, 0), (2, 1)]
    golds = [1, 7]
    seeds = [41, 42]

    def f(_w):
        batch = model.encode_queries(kg, pairs, seeds)
        gold = model.encode_entities(kg, golds)
        kg_term = info_nce_loss(batch.e_hr, gold, model.temperature_scale())
        mask = mask_edges(batch.graph, 0.3, 60)
        from hoplink.training import batch_edge_loss
        edge_term = batch_edge_loss(model, batch, mask, noise_seed=77)
        return combined_loss(kg_term, edge_term, config.lambda_weight)

    sub = khop_neighborhood(kg, pairs[0][0], config.k, config.cap_per_hop, seeds[0])
    assert sub.num_nodes <= 5
    return finite_diff_check(f, model.gnn.params["l0_h0_w"])


# ---------------------------------------------------------------------------
# 3. Oracle equivalence: the evaluator matches an independent brute-force
#    recomputation exactly on a 12-entity toy, and khop matches a plain BFS
#    on 100 random graphs with no cap. Under a minute.
# ---------------------------------------------------------------------------

def count_based_ranks(model: KgcModel, kg: KnowledgeGraph,
                      split: str) -> list[int]:
    """Rank by counting admissible candidates scoring >= the gold tail."""
    from conftest import encode_tails

    known: dict[tuple[int, int], set[int]] = defaultdict(set)
    for triples in kg.splits.values():
        for tr in triples:
            known[(tr.head, tr.relation)].add(tr.tail)
            known[(tr.tail, tr.relation + kg.num_base_relations)].add(tr.head)

    with ad.no_grad():
        raw = [encode_tails(model.text, [(rec.name, rec.description)]).values[0]
               for rec in kg.entities]
    # forward then inverse query of each triple, built here rather than
    # taken from query_columns; unseen by the graph's train-split flags
    offset = kg.num_base_relations
    queries = [q for tr in kg.splits[split]
               for q in (tr, (tr.tail, tr.relation + offset, tr.head))]
    ranks = []
    for i, (head, relation, gold) in enumerate(queries):
        if (kg.entity_unseen[head]
                or kg.relation_unseen[relation % offset]):
            ranks.append(kg.num_entities)
            continue
        seed = eval_neighborhood_seed(model.config.seed, split, i)
        with ad.no_grad():
            vec = model.encode_queries(kg, [(head, relation)],
                                       [seed]).e_hr.values[0]
        vec_norm = np.linalg.norm(vec)

        def score(t: int) -> float:
            t_norm = np.linalg.norm(raw[t])
            if vec_norm < 1e-12 or t_norm < 1e-12:
                return 0.0
            return float(vec @ raw[t]) / (vec_norm * t_norm)

        gold_score = score(gold)
        admissible = [t for t in range(kg.num_entities)
                      if t == gold or t not in known[(head, relation)]]
        ranks.append(sum(1 for t in admissible if score(t) >= gold_score))
    return ranks


def bfs_reachable(triples, head: int, k: int) -> set[int]:
    adjacent = defaultdict(set)
    for h, _, t in triples:
        adjacent[h].add(t)
        adjacent[t].add(h)
    seen = {head}
    frontier = {head}
    for _ in range(k):
        frontier = {n for f in frontier for n in adjacent[f]} - seen
        seen |= frontier
    return seen


def test_criterion_3_oracle_equivalence():
    from conftest import dozen_graph

    start = time.monotonic()
    kg = dozen_graph()
    config = RunConfig(dim=12, encoder="gat", heads=2, k=2,
                       lambda_weight=0.2, seed=5).validate()
    model = KgcModel(config, build_vocab(kg))
    for split in ("valid", "test"):
        ours = evaluate(model, kg, split)
        oracle = RankingMetrics.from_ranks(count_based_ranks(model, kg, split))
        assert ours == oracle, f"{split}: {ours} != {oracle}"

    rng = np.random.default_rng(2026)
    for trial in range(100):
        n = int(rng.integers(3, 51))
        rows = []
        for _ in range(int(rng.integers(n, 3 * n))):
            h, t = rng.integers(0, n, size=2)
            rows.append((f"v{h}", f"r{rng.integers(0, 4)}", f"v{t}"))
        graph = KnowledgeGraph.build(
            {"train": rows, "valid": [], "test": []},
            {name: (name, "") for name in
             {x for h, _, t in rows for x in (h, t)}})
        head = int(rng.integers(0, graph.num_entities))
        k = int(rng.integers(1, 4))
        sub = khop_neighborhood(graph, head, k=k, cap_per_hop=10**9,
                                seed=trial)
        id_triples = [(tr.head, tr.relation, tr.tail)
                      for tr in graph.splits["train"]]
        assert set(sub.nodes) == bfs_reachable(id_triples, head, k)
        assert not sub.truncated

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle checks took {elapsed:.1f}s"
    verdict(3, "evaluator == brute force on both splits; khop == BFS on "
               f"100 random graphs, in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Analytic losses: closed-form values reproduced to stated tolerance.
# ---------------------------------------------------------------------------

def test_criterion_4_analytic_losses():
    b = 6
    same = ad.constant(np.ones((b, 4)))
    uniform = info_nce_loss(same, same, inv_tau=13.0).item()
    assert abs(uniform - np.log(b)) < 1e-9, uniform

    mixed = combined_loss(ad.constant(np.array(1.0)),
                          ad.constant(np.array(0.5)), 0.2).item()
    assert abs(mixed - 0.6) < 1e-12, mixed

    # at Z = 0 every pair scores softplus(0) = ln 2, so the edge loss of a
    # zero posterior minus ln 2 is its KL term
    state = VgaeState(mu=ad.constant(np.zeros((4, 3))),
                      log_sigma=ad.constant(np.zeros((4, 3))))
    pair = np.array([[0, 1]])
    kl = edge_loss(state, ad.constant(np.zeros((4, 3))),
                   EdgeMask(pair, pair[:, ::-1], np.array([1]), np.array([1])),
                   GraphBatch(pair, [4])).item() - np.log(2.0)
    assert abs(kl) < 1e-12, kl
    verdict(4, f"uniform InfoNCE = ln {b} ± 1e-9; 0.2·1.0 + 0.8·0.5 = 0.6 "
               "± 1e-12; KL(N(0,I) ‖ N(0,I)) = 0 ± 1e-12")


# ---------------------------------------------------------------------------
# 5. Learning sanity: on the planted-structure synthetic graph, a 1-hop GAT
#    with the mixed objective reaches train Hits@1 >= 0.9 and held-out
#    Hits@10 >= 0.6 within 200 epochs and five minutes on one CPU core.
#    (Benchmark-scale numbers are out of reach here and are not attempted;
#    these gates probe that the planted regularities are actually learned.)
# ---------------------------------------------------------------------------

def test_criterion_5_learning_sanity(synth_dir):
    from hoplink.kg import load_dataset_dir

    start = time.monotonic()
    kg = load_dataset_dir(synth_dir)
    config = RunConfig(dataset_dir=str(synth_dir), dim=32, encoder="gat",
                       heads=2, k=1, lambda_weight=0.2, batch_size=64,
                       lr=0.01, tau=0.05, seed=0).validate()
    trainer = Trainer(kg, config)
    chunk, cap = 10, 200
    train_h1 = valid_h10 = 0.0
    epochs_run = 0
    while epochs_run < cap:
        trainer.train_epochs(chunk)
        epochs_run += chunk
        train_h1 = evaluate(trainer.model, kg, "train").hits1
        valid_h10 = evaluate(trainer.model, kg, "valid").hits10
        if train_h1 >= 0.9 and valid_h10 >= 0.6:
            break
    elapsed = time.monotonic() - start
    assert train_h1 >= 0.9, \
        f"train Hits@1 = {train_h1:.3f} after {epochs_run} epochs"
    assert valid_h10 >= 0.6, \
        f"valid Hits@10 = {valid_h10:.3f} after {epochs_run} epochs"
    assert epochs_run <= 200
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    verdict(5, f"train Hits@1 = {train_h1:.3f}, valid Hits@10 = "
               f"{valid_h10:.3f} after {epochs_run} epochs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Ablation harness parity: both tables come out with all four metrics plus
#    the average, and a lambda = 1 run is byte-identical to a build with the
#    edge decoder removed outright.
# ---------------------------------------------------------------------------

def test_criterion_6_ablation_parity(synth_dir, tmp_path, monkeypatch):
    out = tmp_path / "tables"
    cfg = write_config(tmp_path / "ablate.cfg", synth_dir, out)
    assert main(["ablate", "--config", str(cfg), "--axis", "encoder",
                 "--split", "valid"]) == 0
    assert main(["ablate", "--config", str(cfg), "--axis", "hops",
                 "--split", "valid"]) == 0

    expected_rows = {"encoder": ["GCN", "GraphSAGE", "GAT"],
                     "hops": ["1-hop", "2-hop", "3-hop"]}
    for axis, settings in expected_rows.items():
        payload = json.loads((out / f"ablation_{axis}.json").read_text())
        assert [row["setting"] for row in payload["rows"]] == settings
        for row in payload["rows"]:
            assert row["status"] == "ok"
            metrics = [row["mrr"], row["hits@1"], row["hits@3"],
                       row["hits@10"]]
            assert row["avg"] == pytest.approx(float(np.mean(metrics)))
        table = (out / f"ablation_{axis}.txt").read_text()
        assert "Avg" in table and all(s in table for s in settings)

    # lambda = 1: rerunning with the decoder class made unconstructable must
    # reproduce the first run byte for byte
    run_dir = tmp_path / "lam1"
    lam1 = write_config(tmp_path / "lam1.cfg", synth_dir, run_dir,
                        epochs=2, **{"lambda": 1.0})
    assert main(["train", "--config", str(lam1)]) == 0
    first_ckpt = (run_dir / "checkpoint.ckpt").read_bytes()
    first_log = (run_dir / "train_log.txt").read_bytes()

    class ForbiddenDecoder:
        def __init__(self, *args, **kwargs):
            raise AssertionError("edge decoder constructed in a lambda=1 run")

    monkeypatch.setattr(hoplink.model, "Vgae", ForbiddenDecoder)
    assert main(["train", "--config", str(lam1)]) == 0
    assert (run_dir / "checkpoint.ckpt").read_bytes() == first_ckpt
    assert (run_dir / "train_log.txt").read_bytes() == first_log
    verdict(6, "both tables carry 4 metrics + Avg per row; lambda=1 run is "
               "byte-identical with the edge decoder unconstructable")


# ---------------------------------------------------------------------------
# 7. Explicit non-reproduction: the benchmark-scale reference scores live in
#    the README as targets, clearly marked as not reproduced here, and no
#    test asserts them.
# ---------------------------------------------------------------------------

def test_criterion_7_explicit_non_reproduction():
    readme = (REPO / "README.md").read_text()
    assert "WN18RR" in readme
    assert "67.4" in readme and "81.2" in readme
    assert re.search(r"not\s+reproduc", readme, re.I), \
        "README must state the reference scores are not reproduced here"

    offenders = []
    for path in sorted(TESTS.glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        if "67.4" in text or "81.2" in text:
            offenders.append(path.name)
    assert not offenders, f"tests asserting reference scores: {offenders}"
    verdict(7, "README records MRR 67.4 / H@10 81.2 as non-reproduced "
               "reference targets; no test asserts them")


# ---------------------------------------------------------------------------
# 8. Determinism: identical config and seed, identical bytes.
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(synth_dir, tmp_path):
    run_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "det.cfg", synth_dir, run_dir, epochs=2)
    assert main(["train", "--config", str(cfg)]) == 0
    first_ckpt = (run_dir / "checkpoint.ckpt").read_bytes()
    first_log = (run_dir / "train_log.txt").read_bytes()
    assert main(["train", "--config", str(cfg)]) == 0
    assert (run_dir / "checkpoint.ckpt").read_bytes() == first_ckpt
    assert (run_dir / "train_log.txt").read_bytes() == first_log
    verdict(8, f"two identical runs: checkpoint ({len(first_ckpt)} bytes) "
               "and log byte-identical")
