"""Command-line surface: preprocess, train, eval, ablate, explain, synth.

Exit codes: 0 success, 1 validation/config error, 2 runtime failure. The
HOPLINK_OUT_ROOT environment variable, when set, is prepended to every
relative output directory; it overrides nothing else.
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
from .evaluation import RankingMetrics, evaluate, query_scores
from .kg import (
    DatasetError,
    KnowledgeGraph,
    ParseError,
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


def resolve_out_dir(raw: str) -> Path:
    root = os.environ.get("HOPLINK_OUT_ROOT")
    path = Path(raw)
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def check_schema(payload: dict, schema: dict[str, type], where: str) -> None:
    """Hand-rolled shape check so every report is machine-verifiable."""
    for key, kind in schema.items():
        if key not in payload:
            raise CliError(f"{where} is missing required key {key!r}")
        if not isinstance(payload[key], kind):
            raise CliError(
                f"{where} key {key!r} should be {kind.__name__}, "
                f"got {type(payload[key]).__name__}")


def load_kg_for(config: RunConfig) -> KnowledgeGraph:
    if not config.dataset_dir:
        raise CliError("config has no dataset_dir; set it in the file or "
                       "pass --dataset_dir")
    return load_dataset_dir(config.dataset_dir)


def metrics_lines(metrics: RankingMetrics) -> list[str]:
    d = metrics.as_dict()
    lines = [f"{key}={d[key]:.6f}" for key in METRIC_KEYS]
    lines.append(f"count={metrics.count}")
    return lines


EVAL_SCHEMA = {"split": str, "mrr": float, "hits@1": float, "hits@3": float,
               "hits@10": float, "count": int, "checkpoint": str}

ABLATE_ROW_SCHEMA = {"setting": str, "status": str}

EXPLAIN_SCHEMA = {"head": str, "relation": str, "predictions": list,
                  "gold": dict, "neighbors": list, "neighborhood_empty": bool}


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


def cmd_train(args, overrides) -> int:
    config = load_config_with_overrides(args.config, overrides)
    kg = load_kg_for(config)
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
    if not Path(args.checkpoint).exists():
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    model = load_model(args.checkpoint)
    config = model.config
    if args.dataset_dir:
        config = dataclasses.replace(config, dataset_dir=args.dataset_dir)
    kg = load_kg_for(config)
    metrics = evaluate(model, kg, args.split)
    for line in metrics_lines(metrics):
        print(line)
    payload = dict(metrics.as_dict(), split=args.split,
                   checkpoint=str(args.checkpoint))
    check_schema(payload, EVAL_SCHEMA, "eval report")
    out = resolve_out_dir(args.out_dir or str(Path(args.checkpoint).parent))
    stem = f"eval_{args.split}"
    (out / f"{stem}.txt").write_text(
        "".join(f"{l}\n" for l in metrics_lines(metrics)), encoding="utf-8")
    write_json(out / f"{stem}.json", payload)
    return EXIT_OK


# -- ablate -------------------------------------------------------------------


def ablation_settings(axis: str, base: RunConfig):
    if axis == "encoder":
        return [(ENCODER_LABELS[v], dataclasses.replace(base, encoder=v))
                for v in ("gcn", "sage", "gat")]
    if axis == "hops":
        return [(f"{k}-hop", dataclasses.replace(base, k=k))
                for k in (1, 2, 3)]
    raise CliError(f"unknown ablation axis {axis!r}; pick encoder or hops")


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


def cmd_ablate(args, overrides) -> int:
    base = load_config_with_overrides(args.config, overrides)
    out = resolve_out_dir(base.out_dir)
    rows = []
    for setting, config in ablation_settings(args.axis, base):
        run_dir = out / f"ablate_{args.axis}" / setting.replace("-", "_").lower()
        config = dataclasses.replace(config, out_dir=str(run_dir))
        row: dict = {"setting": setting, "status": "ok"}
        try:
            kg = load_kg_for(config)
            run_out = resolve_out_dir(config.out_dir)
            trainer = Trainer(kg, config)
            trainer.train()
            save_model(run_out / "checkpoint.ckpt", trainer.model)
            metrics = evaluate(trainer.model, kg, args.split)
            row.update(metrics.as_dict())
            row["avg"] = float(np.mean([metrics.mrr, metrics.hits1,
                                        metrics.hits3, metrics.hits10]))
            row["checkpoint"] = str(run_out / "checkpoint.ckpt")
        except Exception as err:  # a broken cell must not sink the table
            row["status"] = "failed"
            row["error"] = f"{type(err).__name__}: {err}"
        check_schema(row, ABLATE_ROW_SCHEMA, "ablation row")
        rows.append(row)
    table = format_table(rows)
    print(table)
    stem = f"ablation_{args.axis}"
    (out / f"{stem}.txt").write_text(table + "\n", encoding="utf-8")
    write_json(out / f"{stem}.json", {"axis": args.axis, "split": args.split,
                                      "rows": rows})
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
                       model.gnn.last_attention[-1][into_head].tolist()))
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
    if not Path(args.checkpoint).exists():
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    model = load_model(args.checkpoint)
    config = model.config
    if args.dataset_dir:
        config = dataclasses.replace(config, dataset_dir=args.dataset_dir)
    kg = load_kg_for(config)
    head = resolve_name(args.head, kg.entity_ids, "entity")
    relation = resolve_name(args.relation, kg.relation_ids, "relation")

    seed = derive_seed(config.seed, f"explain:{head}:{relation}")
    entities = model.entity_matrix(kg)
    with ad.no_grad():
        batch = model.encode_queries(kg, [(head, relation)], [seed], entities)
    tail_rows, _ = model.tail_matrix(kg, entities)
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
    check_schema(payload, EXPLAIN_SCHEMA, "explanation report")

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
    out = resolve_out_dir(args.out_dir or str(Path(args.checkpoint).parent))
    (out / "explanation.txt").write_text(text + "\n", encoding="utf-8")
    write_json(out / "explanation.json", payload)
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

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test",
                   choices=("train", "valid", "test"))
    p.add_argument("--dataset-dir")
    p.add_argument("--out-dir")

    p = sub.add_parser("ablate", help="train once per axis value")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=("encoder", "hops"))
    p.add_argument("--split", default="test",
                   choices=("train", "valid", "test"))

    p = sub.add_parser("explain", help="case study for one query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--top-n", type=int, default=3)
    p.add_argument("--dataset-dir")
    p.add_argument("--out-dir")

    p = sub.add_parser("synth", help="write the synthetic benchmark dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args, leftover = parser.parse_known_args(argv)
    if args.command in ("train", "ablate"):
        if args.command == "train":
            return cmd_train(args, leftover)
        return cmd_ablate(args, leftover)
    if leftover:
        raise CliError(f"unrecognized arguments: {' '.join(leftover)}")
    if args.command == "preprocess":
        return cmd_preprocess(args)
    if args.command == "eval":
        return cmd_eval(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.command == "synth":
        return cmd_synth(args)
    raise CliError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        return run(argv)
    except (CliError, ConfigError, DatasetError, ParseError,
            CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
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
