"""Knowledge-graph storage: dataset loading, inverse relations, k-hop neighborhoods.

Entity and relation ids are dense integers assigned in first-appearance order
(train split first, then valid, then test), so identical files always produce
identical id maps. Adjacency lists are built from the train split only; valid
and test triples never leak into neighborhoods.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

SPLITS = ("train", "valid", "test")

LabelTriple = tuple[str, str, str]


class DatasetError(Exception):
    """Unusable dataset: empty train split, missing metadata, count mismatch."""


class ParseError(DatasetError):
    """Malformed line in a dataset file; message carries path and line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class TransductiveWarning(UserWarning):
    """Some valid/test entities or relations never appear in the train split."""


@dataclass(frozen=True)
class Triple:
    head: int
    relation: int
    tail: int


@dataclass
class EntityRecord:
    id: int
    name: str
    description: str = ""


@dataclass
class NeighborhoodSubgraph:
    """Induced subgraph around a head entity.

    ``nodes`` lists original entity ids with the head at index 0. ``arrows``
    is an (m, 2) int array holding each (i, j) once iff some train triple
    links nodes[i] -> nodes[j] (original direction; synthesized inverse
    relations add no arrows), sorted by i then j. ``edges`` keeps the
    per-relation detail behind the arrows.
    """

    nodes: list[int]
    arrows: np.ndarray
    hop_of: np.ndarray
    truncated: bool
    edges: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class KnowledgeGraph:
    entity_ids: dict[str, int]
    entity_labels: list[str]
    entities: list[EntityRecord]
    relation_ids: dict[str, int]
    relation_labels: list[str]
    num_base_relations: int
    splits: dict[str, list[Triple]]
    out_adj: list[list[tuple[int, int]]]
    in_adj: list[list[tuple[int, int]]]
    unseen_entities: frozenset[int]
    unseen_relations: frozenset[int]
    inverses_added: bool = False
    filter_index: dict[tuple[int, int], set[int]] = field(default_factory=dict)

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_relations(self) -> int:
        return len(self.relation_labels)

    def base_relation(self, relation: int) -> int:
        if relation >= self.num_base_relations:
            return relation - self.num_base_relations
        return relation

    def query_is_unseen(self, head: int, relation: int) -> bool:
        """True when the query touches an entity/relation absent from train."""
        return (head in self.unseen_entities
                or self.base_relation(relation) in self.unseen_relations)

    def undirected_neighbors(self, entity: int) -> set[int]:
        found = {t for _, t in self.out_adj[entity]}
        found.update(h for _, h in self.in_adj[entity])
        return found

    def degree(self, entity: int) -> int:
        return len(self.out_adj[entity]) + len(self.in_adj[entity])

    @classmethod
    def build(cls, split_triples: Mapping[str, Sequence[LabelTriple]],
              entity_text: Mapping[str, tuple[str, str]]) -> "KnowledgeGraph":
        """Assemble a graph from raw label triples and an entity text table."""
        if not split_triples.get("train"):
            raise DatasetError("train split is empty; nothing to build from")

        entity_ids: dict[str, int] = {}
        entity_labels: list[str] = []
        relation_ids: dict[str, int] = {}
        relation_labels: list[str] = []

        def ent(label: str) -> int:
            eid = entity_ids.get(label)
            if eid is None:
                eid = len(entity_labels)
                entity_ids[label] = eid
                entity_labels.append(label)
            return eid

        def rel(label: str) -> int:
            rid = relation_ids.get(label)
            if rid is None:
                rid = len(relation_labels)
                relation_ids[label] = rid
                relation_labels.append(label)
            return rid

        splits: dict[str, list[Triple]] = {}
        for name in SPLITS:
            rows = split_triples.get(name, ())
            # argument order fixes first-appearance id assignment: h, r, t
            splits[name] = [Triple(ent(h), rel(r), ent(t)) for h, r, t in rows]

        missing = [label for label in entity_labels if label not in entity_text]
        if missing:
            shown = ", ".join(repr(m) for m in missing[:5])
            raise DatasetError(
                f"{len(missing)} entities have no entity-text row (e.g. {shown})")

        entities = []
        for eid, label in enumerate(entity_labels):
            name, desc = entity_text[label]
            entities.append(EntityRecord(id=eid, name=name, description=desc))

        out_sets: dict[int, set[tuple[int, int]]] = {}
        in_sets: dict[int, set[tuple[int, int]]] = {}
        for tr in splits["train"]:
            out_sets.setdefault(tr.head, set()).add((tr.relation, tr.tail))
            in_sets.setdefault(tr.tail, set()).add((tr.relation, tr.head))
        out_adj = [sorted(out_sets.get(e, ())) for e in range(len(entity_labels))]
        in_adj = [sorted(in_sets.get(e, ())) for e in range(len(entity_labels))]

        train_entities = {tr.head for tr in splits["train"]}
        train_entities.update(tr.tail for tr in splits["train"])
        train_relations = {tr.relation for tr in splits["train"]}
        unseen_entities = frozenset(
            e for e in range(len(entity_labels)) if e not in train_entities)
        unseen_relations = frozenset(
            r for r in range(len(relation_labels)) if r not in train_relations)
        if unseen_entities or unseen_relations:
            warnings.warn(
                f"{len(unseen_entities)} entities and {len(unseen_relations)} "
                "relations appear only in valid/test; queries touching them "
                "will be scored as failures",
                TransductiveWarning, stacklevel=2)

        kg = cls(entity_ids=entity_ids, entity_labels=entity_labels,
                 entities=entities, relation_ids=relation_ids,
                 relation_labels=relation_labels,
                 num_base_relations=len(relation_labels), splits=splits,
                 out_adj=out_adj, in_adj=in_adj,
                 unseen_entities=unseen_entities,
                 unseen_relations=unseen_relations)
        build_filter_index(kg)
        return kg


def _read_triples(path) -> list[LabelTriple]:
    rows: list[LabelTriple] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(path, line_no,
                                 f"expected 3 tab-separated fields, got {len(parts)}")
            rows.append((parts[0], parts[1], parts[2]))
    return rows


def _read_entity_text(path) -> dict[str, tuple[str, str]]:
    texts: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t", 2)
            if len(parts) < 2:
                raise ParseError(path, line_no,
                                 "expected id<TAB>name[<TAB>description]")
            ident, name = parts[0], parts[1]
            desc = parts[2] if len(parts) == 3 else ""
            if not name.strip():
                raise ParseError(path, line_no, f"empty name for entity {ident!r}")
            if ident in texts:
                raise ParseError(path, line_no, f"duplicate text row for entity {ident!r}")
            texts[ident] = (name, desc)
    return texts


def load_dataset(triple_files: Mapping[str, object], entity_text_file,
                 expected_counts: Mapping[str, int] | None = None) -> KnowledgeGraph:
    """Load triple files (split name -> path) plus an entity text file."""
    split_rows: dict[str, list[LabelTriple]] = {}
    for name in SPLITS:
        path = triple_files.get(name)
        if path is None:
            split_rows[name] = []
            continue
        if not Path(path).exists():
            raise DatasetError(f"missing triple file: {path}")
        split_rows[name] = _read_triples(path)
    if not split_rows["train"]:
        raise DatasetError(f"train split is empty: {triple_files.get('train')}")
    if not Path(entity_text_file).exists():
        raise DatasetError(f"missing entity text file: {entity_text_file}")
    texts = _read_entity_text(entity_text_file)
    kg = KnowledgeGraph.build(split_rows, texts)
    if expected_counts:
        diffs = validate_counts(kg, expected_counts)
        if diffs:
            raise DatasetError("dataset counts do not match manifest:\n  "
                               + "\n  ".join(diffs))
    return kg


ENTITY_TEXT_CANDIDATES = ("entities.txt", "entity2textlong.txt", "entity2text.txt")


def load_dataset_dir(dataset_dir,
                     expected_counts: Mapping[str, int] | None = None) -> KnowledgeGraph:
    """Load from a directory holding train/valid/test.txt and an entity text file."""
    d = Path(dataset_dir)
    triples: dict[str, object] = {"train": d / "train.txt"}
    for name in ("valid", "test"):
        if (d / f"{name}.txt").exists():
            triples[name] = d / f"{name}.txt"
    for cand in ENTITY_TEXT_CANDIDATES:
        if (d / cand).exists():
            text_file = d / cand
            break
    else:
        raise DatasetError(
            f"no entity text file in {d} (tried {', '.join(ENTITY_TEXT_CANDIDATES)})")
    return load_dataset(triples, text_file, expected_counts)


def validate_counts(kg: KnowledgeGraph,
                    expected: Mapping[str, int]) -> list[str]:
    """Compare against manifest counts; returns one message per mismatch."""
    found = {
        "entities": kg.num_entities,
        "relations": kg.num_base_relations,
        "train": len(kg.splits["train"]),
        "valid": len(kg.splits["valid"]),
        "test": len(kg.splits["test"]),
    }
    diffs = []
    for key in sorted(expected):
        if key not in found:
            diffs.append(f"{key}: unknown count key (valid: {', '.join(sorted(found))})")
        elif found[key] != expected[key]:
            diffs.append(f"{key}: expected {expected[key]}, found {found[key]}")
    return diffs


def add_inverse_relations(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Synthesize an inverse relation per base relation; second call is a no-op.

    Inverse edges enter the adjacency lists and the filter index so that
    (?, r, t) queries become tail prediction (t, r_inv, ?). Split triple lists
    stay in original form, and neighborhoods keep original arrows.
    """
    if kg.inverses_added:
        return kg
    offset = kg.num_base_relations
    for label in list(kg.relation_labels[:offset]):
        inv = f"inverse of {label}"
        kg.relation_ids[inv] = len(kg.relation_labels)
        kg.relation_labels.append(inv)
    for tr in kg.splits["train"]:
        kg.out_adj[tr.tail].append((tr.relation + offset, tr.head))
        kg.in_adj[tr.head].append((tr.relation + offset, tr.tail))
    for adj in (kg.out_adj, kg.in_adj):
        for entries in adj:
            entries.sort()
    kg.inverses_added = True
    build_filter_index(kg)
    return kg


def build_filter_index(kg: KnowledgeGraph) -> dict[tuple[int, int], set[int]]:
    """(head, relation) -> all gold tails across every split, inverse-augmented."""
    index: dict[tuple[int, int], set[int]] = {}
    offset = kg.num_base_relations
    for triples in kg.splits.values():
        for tr in triples:
            index.setdefault((tr.head, tr.relation), set()).add(tr.tail)
            if kg.inverses_added:
                index.setdefault((tr.tail, tr.relation + offset), set()).add(tr.head)
    kg.filter_index = index
    return index


def queries_both_directions(kg: KnowledgeGraph, split: str) -> list[Triple]:
    """Forward (h, r, ?) plus inverse (t, r_inv, ?) query per triple."""
    if not kg.inverses_added:
        raise ValueError("inverse relations not added; call add_inverse_relations first")
    offset = kg.num_base_relations
    queries: list[Triple] = []
    for tr in kg.splits[split]:
        queries.append(tr)
        queries.append(Triple(tr.tail, tr.relation + offset, tr.head))
    return queries


def khop_neighborhood(kg: KnowledgeGraph, head: int, k: int,
                      cap_per_hop: int = 32, seed: int = 0) -> NeighborhoodSubgraph:
    """Breadth-first neighborhood of ``head`` up to ``k`` hops.

    Discovery treats train edges as undirected (incoming plus outgoing); the
    returned arrows keep original directions. When a hop frontier exceeds
    ``cap_per_hop``, a seeded uniform subsample is kept and the subgraph is
    marked truncated.
    """
    if not 0 <= head < kg.num_entities:
        raise KeyError(f"unknown entity id {head}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cap_per_hop < 1:
        raise ValueError(f"cap_per_hop must be >= 1, got {cap_per_hop}")
    rng = np.random.default_rng(seed)

    hop_of: dict[int, int] = {head: 0}
    order = [head]
    frontier = [head]
    truncated = False
    for hop in range(1, k + 1):
        found: set[int] = set()
        for node in frontier:
            found.update(kg.undirected_neighbors(node))
        found.difference_update(hop_of)
        candidates = sorted(found)
        if len(candidates) > cap_per_hop:
            keep = rng.choice(len(candidates), size=cap_per_hop, replace=False)
            candidates = sorted(candidates[i] for i in keep)
            truncated = True
        for node in candidates:
            hop_of[node] = hop
            order.append(node)
        frontier = candidates
        if not frontier:
            break

    index_of = {e: i for i, e in enumerate(order)}
    edges: list[tuple[int, int, int]] = []
    for i, e in enumerate(order):
        for r, t in kg.out_adj[e]:
            if r >= kg.num_base_relations:
                continue
            j = index_of.get(t)
            if j is None:
                continue
            edges.append((i, j, r))
    arrows = np.array(sorted({(i, j) for i, j, _ in edges}),
                      dtype=np.int64).reshape(-1, 2)
    hops = np.array([hop_of[e] for e in order], dtype=np.int64)
    return NeighborhoodSubgraph(nodes=order, arrows=arrows, hop_of=hops,
                                truncated=truncated, edges=edges)
