"""Command-line surface: preprocess, train, eval, ablate, explain, synth.

Exit codes: 0 success, 1 validation/config error, 2 runtime failure. The
HOPLINK_OUT_ROOT environment variable, when set, is prepended to every
relative output directory named by a flag or a config; it overrides nothing
else. The default report directory of eval and explain is the checkpoint's
own directory, exactly as given, and is not re-rooted.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    parse_config_file,
    write_config_snapshot,
)
from .evaluation import evaluate, query_scores
from .kg import (
    DatasetError,
    KnowledgeGraph,
    dataset_counts,
    known_tails,
    load_dataset_dir,
    subgraph_edges,
    validate_counts,
)
from .model import KgcModel, load_model, save_model
from .seeding import derive_seed
from .synth import write_synthetic_dataset
from .text import build_vocab, save_vocab, tokenize
from .training import DivergenceError, Trainer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

ENCODER_LABELS = {"gcn": "GCN", "sage": "GraphSAGE", "gat": "GAT"}
METRIC_KEYS = ("mrr", "hits@1", "hits@3", "hits@10")


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad usage; route through our codes instead
    def error(self, message):
        raise CliError(message)


# -- shared plumbing ----------------------------------------------------------


def out_path(raw: str) -> Path:
    """``raw`` under HOPLINK_OUT_ROOT when that is set; an absolute ``raw``
    discards the root."""
    return Path(os.environ.get("HOPLINK_OUT_ROOT", ""), raw)


def resolve_out_dir(raw: str) -> Path:
    path = out_path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_report(out: Path, stem: str, text: str, payload: dict) -> None:
    """Write ``text`` to ``<stem>.txt`` and ``payload`` to ``<stem>.json``."""
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.txt").write_text(text + "\n", encoding="utf-8")
    (out / f"{stem}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_kg_for(dataset_dir: str) -> KnowledgeGraph:
    if not dataset_dir:
        raise CliError("config has no dataset_dir; set it in the file or "
                       "pass --dataset_dir")
    return load_dataset_dir(dataset_dir)


def load_checkpoint_and_graph(args) -> tuple[KgcModel, KnowledgeGraph, Path]:
    """The model in ``--checkpoint``, its graph (``--dataset-dir`` overrides
    the one its config names) and the report directory: ``--out-dir`` under
    the output root, else the checkpoint's own directory as given."""
    if not Path(args.checkpoint).exists():
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    model = load_model(args.checkpoint)
    kg = load_kg_for(args.dataset_dir or model.config.dataset_dir)
    report_dir = (out_path(args.out_dir) if args.out_dir
                  else Path(args.checkpoint).parent)
    return model, kg, report_dir


# -- preprocess ---------------------------------------------------------------


def parse_manifest(path) -> dict[str, int]:
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            try:
                counts[key.strip()] = int(value)
            except ValueError:
                raise CliError(f"{path}: bad manifest line {line!r}")
    return counts


def cmd_preprocess(args) -> int:
    kg = load_dataset_dir(args.dataset_dir)
    counts = dataset_counts(kg)
    if args.expect:
        diffs = validate_counts(kg, parse_manifest(args.expect))
        if diffs:
            raise CliError("dataset counts do not match the expected "
                           "manifest:\n  " + "\n  ".join(diffs))
    out = resolve_out_dir(args.out_dir)
    (out / "manifest.txt").write_text(
        "".join(f"{k} = {v}\n" for k, v in counts.items()), encoding="utf-8")
    tokenizer = build_vocab(kg)
    save_vocab(tokenizer, out / "vocab.txt")
    (out / "entity_ids.txt").write_text(
        "".join(f"{i}\t{label}\n" for label, i in
                sorted(kg.entity_ids.items(), key=lambda kv: kv[1])),
        encoding="utf-8")
    (out / "relation_ids.txt").write_text(
        "".join(f"{i}\t{label}\n"
                for i, label in enumerate(kg.relation_labels)),
        encoding="utf-8")
    for key, value in counts.items():
        print(f"{key}={value}")
    print(f"artifacts written to {out}")
    return EXIT_OK


# -- train --------------------------------------------------------------------


def load_config_with_overrides(config_path, overrides) -> RunConfig:
    config = parse_config_file(config_path)
    apply_overrides(config, overrides)
    config.validate()
    return config


def cmd_train(args) -> int:
    config = load_config_with_overrides(args.config, args.overrides)
    kg = load_kg_for(config.dataset_dir)
    out = resolve_out_dir(config.out_dir)
    write_config_snapshot(config, out / "config_snapshot.txt")
    lines: list[str] = []

    def log(line: str) -> None:
        lines.append(line)
        print(line)

    trainer = Trainer(kg, config, log_fn=log)
    code = EXIT_OK
    try:
        trainer.train()
    except DivergenceError as err:
        log(f"aborted: {err}")
        code = EXIT_RUNTIME
    save_model(out / "checkpoint.ckpt", trainer.model)
    (out / "train_log.txt").write_text("".join(f"{l}\n" for l in lines),
                                       encoding="utf-8")
    print(f"checkpoint written to {out / 'checkpoint.ckpt'}")
    return code


# -- eval ---------------------------------------------------------------------


def cmd_eval(args) -> int:
    model, kg, out = load_checkpoint_and_graph(args)
    metrics = evaluate(model, kg, args.split)
    values = metrics.as_dict()
    lines = [f"{key}={values[key]:.6f}" for key in METRIC_KEYS]
    text = "\n".join(lines + [f"count={metrics.count}"])
    print(text)
    write_report(out, f"eval_{args.split}", text,
                 dict(values, split=args.split,
                      checkpoint=str(args.checkpoint)))
    return EXIT_OK


# -- ablate -------------------------------------------------------------------


def ablation_settings(axis: str, base: RunConfig):
    if axis == "encoder":
        return [(ENCODER_LABELS[v], dataclasses.replace(base, encoder=v))
                for v in ("gcn", "sage", "gat")]
    return [(f"{k}-hop", dataclasses.replace(base, k=k)) for k in (1, 2, 3)]


def format_table(rows: list[dict]) -> str:
    header = f"{'setting':<12} {'MRR':>8} {'H@1':>8} {'H@3':>8} " \
             f"{'H@10':>8} {'Avg':>8}"
    out = [header, "-" * len(header)]
    for row in rows:
        if row["status"] != "ok":
            out.append(f"{row['setting']:<12} failed: {row['error']}")
            continue
        out.append(
            f"{row['setting']:<12} {row['mrr']:>8.4f} {row['hits@1']:>8.4f} "
            f"{row['hits@3']:>8.4f} {row['hits@10']:>8.4f} {row['avg']:>8.4f}")
    return "\n".join(out)


def cmd_ablate(args) -> int:
    base = load_config_with_overrides(args.config, args.overrides)
    out = resolve_out_dir(base.out_dir)
    rows = []
    for setting, config in ablation_settings(args.axis, base):
        run_dir = out / f"ablate_{args.axis}" / setting.replace("-", "_").lower()
        config = dataclasses.replace(config, out_dir=str(run_dir))
        row: dict = {"setting": setting, "status": "ok"}
        try:
            kg = load_kg_for(config.dataset_dir)
            run_dir.mkdir(parents=True, exist_ok=True)
            trainer = Trainer(kg, config)
            trainer.train()
            save_model(run_dir / "checkpoint.ckpt", trainer.model)
            metrics = evaluate(trainer.model, kg, args.split)
            row.update(metrics.as_dict())
            row["avg"] = float(np.mean([metrics.mrr, metrics.hits1,
                                        metrics.hits3, metrics.hits10]))
            row["checkpoint"] = str(run_dir / "checkpoint.ckpt")
        except Exception as err:  # a broken cell must not sink the table
            row["status"] = "failed"
            row["error"] = f"{type(err).__name__}: {err}"
        rows.append(row)
    table = format_table(rows)
    print(table)
    write_report(out, f"ablation_{args.axis}", table,
                 {"axis": args.axis, "split": args.split, "rows": rows})
    return EXIT_OK if all(r["status"] == "ok" for r in rows) else EXIT_RUNTIME


# -- explain ------------------------------------------------------------------


def resolve_name(label: str, table: dict[str, int], what: str) -> int:
    if label in table:
        return table[label]
    if label.isdigit() and int(label) < len(table):
        return int(label)
    close = difflib.get_close_matches(label, sorted(table), n=3, cutoff=0.4)
    hint = f"; did you mean: {', '.join(close)}" if close else ""
    raise CliError(f"unknown {what} {label!r}{hint}")


# explain orders GAT neighbors by attention to this many decimals, so that
# weights equal in exact arithmetic tie and go by row
ATTENTION_DECIMALS = 12


def neighbor_order(model: KgcModel, batch, kg: KnowledgeGraph) -> list[int]:
    """Neighbor display order: attention weight from the head (row 0) when
    the encoder produces one, otherwise hop then degree."""
    sub = batch.subgraphs[0]
    indices = list(range(1, sub.num_nodes))
    if model.config.encoder == "gat" and model.gnn.last_attention:
        # the final layer's attention covers the edges into readout rows,
        # head row 0's first
        into_head = slice(batch.graph.indptr[1])
        att = dict(zip(batch.graph.src[into_head].tolist(),
                       np.round(model.gnn.last_attention[-1][into_head],
                                ATTENTION_DECIMALS).tolist()))
        return sorted(indices, key=lambda i: (-att.get(i, 0.0), i))
    return sorted(indices,
                  key=lambda i: (int(sub.hop_of[i]),
                                 -kg.degree(sub.nodes[i]), sub.nodes[i]))


def connecting_edge(sub, edges, node_index: int, kg: KnowledgeGraph):
    touching = [(i, j, r) for i, j, r in edges
                if i == node_index or j == node_index]
    if not touching:
        return None
    # prefer the edge that ties the node closest to the head
    def sort_key(edge):
        i, j, r = edge
        other = j if i == node_index else i
        return (int(sub.hop_of[other]), other, r)

    i, j, r = min(touching, key=sort_key)
    src, dst = kg.entities[sub.nodes[i]].name, kg.entities[sub.nodes[j]].name
    return {"relation": kg.relation_labels[r], "edge": f"{src} -> {dst}"}


def cmd_explain(args) -> int:
    if args.top_n < 1:
        raise CliError(f"--top-n must be >= 1, got {args.top_n}")
    model, kg, out = load_checkpoint_and_graph(args)
    head = resolve_name(args.head, kg.entity_ids, "entity")
    relation = resolve_name(args.relation, kg.relation_ids, "relation")

    seed = derive_seed(model.config.seed, f"explain:{head}:{relation}")
    entities = model.entity_table(kg)
    with ad.no_grad():
        batch = model.encode_queries(kg, [(head, relation)], [seed], entities)
    tail_rows, _ = model.tail_matrix(kg, entities.matrix)
    scores = query_scores(batch.e_hr.values, tail_rows)[0]
    order = np.lexsort((np.arange(len(scores)), -scores))
    top = [{"entity": kg.entities[int(e)].name, "score": float(scores[e]),
            "rank": rank + 1}
           for rank, e in enumerate(order[:args.top_n])]

    known, _ = known_tails(kg, [head], [relation])
    if len(known):
        # the best-scoring known tail; ties go to the lowest id
        best_gold = int(known[np.argmax(scores[known])])
        gold = {"entity": kg.entities[best_gold].name,
                "score": float(scores[best_gold]),
                "rank": int(np.where(order == best_gold)[0][0]) + 1,
                "in_top_n": bool(np.isin(best_gold, order[:args.top_n]))}
    else:
        gold = {"entity": "", "score": 0.0, "rank": 0, "in_top_n": False}

    sub = batch.subgraphs[0]
    edges = subgraph_edges(kg, sub)
    top_tokens = set(tokenize(top[0]["entity"])) if top else set()
    neighbors = []
    for idx in neighbor_order(model, batch, kg):
        rec = kg.entities[sub.nodes[idx]]
        overlap = sorted(top_tokens
                         & set(tokenize(f"{rec.name} {rec.description}")))
        entry = {"name": rec.name, "description": rec.description,
                 "hop": int(sub.hop_of[idx]), "highlights": overlap}
        edge = connecting_edge(sub, edges, idx, kg)
        if edge:
            entry.update(edge)
        neighbors.append(entry)

    payload = {"head": kg.entities[head].name,
               "head_description": kg.entities[head].description,
               "relation": kg.relation_labels[relation],
               "predictions": top, "gold": gold, "neighbors": neighbors,
               "neighborhood_empty": not neighbors}

    lines = [f"query: ({payload['head']}, {payload['relation']}, ?)",
             f"head text: {payload['head_description'] or '(none)'}",
             "predictions:"]
    for p in top:
        marker = "  <- gold" if p["entity"] == gold["entity"] else ""
        lines.append(f"  {p['rank']}. {p['entity']} "
                     f"score={p['score']:.4f}{marker}")
    if gold["entity"]:
        lines.append(f"gold: {gold['entity']} rank={gold['rank']} "
                     f"score={gold['score']:.4f}")
    else:
        lines.append("gold: (no known tail for this query)")
    if neighbors:
        lines.append("neighbors:")
        for n in neighbors:
            hl = f" shared tokens: {', '.join(n['highlights'])}" \
                if n["highlights"] else ""
            via = f" via {n['relation']} ({n['edge']})" if "relation" in n \
                else ""
            lines.append(f"  hop {n['hop']}: {n['name']}{via}{hl}")
    else:
        lines.append("neighbors: (empty neighborhood)")
    text = "\n".join(lines)
    print(text)
    write_report(out, "explanation", text, payload)
    return EXIT_OK


# -- synth --------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = resolve_out_dir(args.out_dir)
    write_synthetic_dataset(out, seed=args.seed)
    print(f"synthetic dataset written to {out}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hoplink",
                     description="Text-aware knowledge graph completion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="validate a dataset directory")
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--expect", help="manifest file with expected counts")
    p.set_defaults(run=cmd_preprocess)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "valid", "test"))
    p.add_argument("--dataset-dir")
    p.add_argument("--out-dir")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("ablate", help="train once per axis value")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=("encoder", "hops"))
    p.add_argument("--split", default="test",
                   choices=("train", "valid", "test"))
    p.set_defaults(run=cmd_ablate)

    p = sub.add_parser("explain", help="case study for one query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--top-n", type=int, default=3)
    p.add_argument("--dataset-dir")
    p.add_argument("--out-dir")
    p.set_defaults(run=cmd_explain)

    p = sub.add_parser("synth", help="write the synthetic benchmark dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_synth)
    return parser


def run(argv=None) -> int:
    args, overrides = build_parser().parse_known_args(argv)
    # only train and ablate take --key value config overrides
    if overrides and args.command not in ("train", "ablate"):
        raise CliError(f"unrecognized arguments: {' '.join(overrides)}")
    args.overrides = overrides
    return args.run(args)


def main(argv=None) -> int:
    try:
        return run(argv)
    except (CliError, ConfigError, DatasetError, CheckpointError,
            FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as err:
        print(f"runtime failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
