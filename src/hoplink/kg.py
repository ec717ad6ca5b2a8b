"""Knowledge-graph storage: dataset loading, inverse relations, k-hop neighborhoods.

Entity and relation ids are dense integers assigned in first-appearance order
(train split first, then valid, then test), so identical files always produce
identical id maps. ``KnowledgeGraph.build`` also gives each of the R base
relations r an inverse relation r + R, labelled ``inverse of <r>``: a head
question (?, r, t) is asked as the tail question (t, r + R, ?), so a built
graph answers both directions.

``KnowledgeGraph.build`` makes the graph's one adjacency: a read-only CSR
``NeighborIndex`` of the train triples (each entity's neighbors, out-edges
and degree-ordered arrows as slices of flat arrays). Valid and test triples
never leak into it. Sampling and linking are split: ``khop_neighborhood``
samples one query's nodes and hops, and ``combine_adjacency`` links a whole
batch of subgraphs in one pass over their nodes' arrow rows, which hold each
directed pair once at its lower-degree end, so a hub's row stays short.
``subgraph_edges`` lists one subgraph's per-relation edges on demand, and
``degree`` counts edges. The index never changes after ``build``, so a
neighborhood in which no hop hit its cap, and hence no random draw was made,
depends only on (head, k, cap): the graph keeps each such neighborhood in
``kg.neighborhoods`` and ``khop_neighborhood`` computes it once per graph.

The filtered ranking protocol reads ``kg.filter_index``, one sorted array of
the ``fact_keys`` of every split's triples and their inverses, so a batch of
(head, relation) queries finds all its known tails with two ``searchsorted``
calls (``known_tails``).

A split's queries are one (2m x 3) array of (head, relation, gold) rows
(``query_columns``), which training and ``evaluate`` slice; ``known_tails``
and ``query_is_unseen`` each answer a batch of its rows in one call.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .text import TokenTable

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


class Triple(NamedTuple):
    """Entity and relation ids of one fact; equal to the plain tuple."""

    head: int
    relation: int
    tail: int


@dataclass
class EntityRecord:
    name: str
    description: str = ""


@dataclass(frozen=True, eq=False)
class NeighborhoodSubgraph:
    """Sampled neighborhood of a head entity: nodes and hops only (its
    arrows come from ``combine_adjacency``, its edges from ``subgraph_edges``).

    ``nodes`` holds original entity ids, the head at index 0 and each hop's
    nodes after the last hop's, and ``hop_of`` each node's hop: read-only
    int64 arrays, so the graph's memo can share one subgraph with every call.
    """

    nodes: np.ndarray
    hop_of: np.ndarray
    truncated: bool

    def __post_init__(self):
        self.nodes.flags.writeable = self.hop_of.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """CSR (compressed sparse row) rows per entity: row e of (``indptr``,
    ``indices``) holds e's undirected train neighbors, sorted and unique (e
    itself for a self-loop); row e of (``out_indptr``, ``out_relations``,
    ``out_tails``) holds e's distinct train out-edges sorted by (relation,
    tail). Row e of (``arrow_indptr``, ``arrow_entries``) holds each distinct
    directed train pair once, relations dropped, in the row of its endpoint
    that is lower by (undirected degree, id): the entry is 2 * other + 1 for
    an arrow other -> e, else 2 * other (a self-loop is 2 * e). Ordering the
    pairs by degree keeps hubs' rows short (Chiba & Nishizeki, 1985). Inverse
    relations add no neighbor, out-edge or arrow."""

    indptr: np.ndarray
    indices: np.ndarray
    out_indptr: np.ndarray
    out_relations: np.ndarray
    out_tails: np.ndarray
    arrow_indptr: np.ndarray
    arrow_entries: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of ints by sort and drop repeats (numpy 2's is slower)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _csr(keys: np.ndarray, width: int, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, columns) of the distinct cells ``row * width + column``."""
    keys = _sorted_unique(keys)
    return np.searchsorted(keys // width, np.arange(num_rows + 1)), keys % width


def _range_slots(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions start..stop-1 of every range, concatenated, and each range's
    length; the ranges may be the rows of a CSR index."""
    counts = stops - starts
    ends = np.cumsum(counts)
    slots = np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)
    return slots, counts


@dataclass(eq=False)
class KnowledgeGraph:
    """A built graph: ids, texts, split triples and the train adjacency.
    ``relation_labels`` lists the R base relations, then their R inverses."""

    entity_ids: dict[str, int]
    entity_labels: list[str]
    entities: list[EntityRecord]
    relation_ids: dict[str, int]
    relation_labels: list[str]
    splits: dict[str, list[Triple]]
    neighbor_index: NeighborIndex
    # read-only flags, by entity and base-relation id, of those absent from
    # the train split
    entity_unseen: np.ndarray
    relation_unseen: np.ndarray
    # sorted fact_keys of every split's triples and their inverses
    filter_index: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    # draw-free neighborhoods by (head, k, cap_per_hop), see khop_neighborhood
    neighborhoods: dict[tuple[int, int, int], NeighborhoodSubgraph] = field(
        default_factory=dict, repr=False)
    # every entity text and relation label tokenized once, see text.token_table
    token_table: TokenTable | None = field(default=None, repr=False)

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_base_relations(self) -> int:
        return len(self.relation_labels) // 2

    def query_is_unseen(self, heads, relations):
        """Whether each query (head, relation) touches an entity or base
        relation absent from train; a bool for one query, else a bool array."""
        unseen = (self.entity_unseen[heads]
                  | self.relation_unseen[np.remainder(relations, self.num_base_relations)])
        return unseen if unseen.ndim else bool(unseen)

    def degree(self, entity: int) -> int:
        """Distinct train out-edges plus distinct train in-edges."""
        index = self.neighbor_index
        return int(index.out_indptr[entity + 1] - index.out_indptr[entity]
                   + np.count_nonzero(index.out_tails == entity))

    @classmethod
    def build(cls, split_triples: Mapping[str, Sequence[LabelTriple]],
              entity_text: Mapping[str, tuple[str, str]]) -> "KnowledgeGraph":
        """Assemble a graph from raw label triples and an entity text table."""
        if not split_triples.get("train"):
            raise DatasetError("train split is empty; nothing to build from")

        rows = [row for name in SPLITS for row in split_triples.get(name, ())]
        # label columns in first-appearance order: head before tail, by split
        ends = [label for h, _, t in rows for label in (h, t)]
        relations = [r for _, r, _ in rows]
        entity_labels = list(dict.fromkeys(ends))
        relation_labels = list(dict.fromkeys(relations))
        inverse_labels = [f"inverse of {label}" for label in relation_labels]
        entity_ids = dict(zip(entity_labels, range(len(entity_labels))))
        relation_ids = dict(zip(relation_labels, range(len(relation_labels))))
        clash = [label for label in inverse_labels if label in relation_ids]
        if clash:
            raise DatasetError(f"relation {clash[0]!r} is also the inverse label "
                               f"of relation {clash[0].removeprefix('inverse of ')!r}")
        relation_ids.update(zip(inverse_labels, itertools.count(len(relation_labels))))

        missing = [label for label in entity_labels if label not in entity_text]
        if missing:
            shown = ", ".join(repr(m) for m in missing[:5])
            raise DatasetError(
                f"{len(missing)} entities have no entity-text row (e.g. {shown})")

        entities = [EntityRecord(*entity_text[label]) for label in entity_labels]

        heads, tails = np.fromiter(map(entity_ids.__getitem__, ends), np.int64,
                                   len(ends)).reshape(-1, 2).T
        rels = np.fromiter(map(relation_ids.__getitem__, relations), np.int64, len(rows))
        columns = (heads.tolist(), rels.tolist(), tails.tolist())
        splits: dict[str, list[Triple]] = {}
        start = 0
        for name in SPLITS:
            stop = start + len(split_triples.get(name, ()))
            # tuple.__new__ skips the Python-level Triple.__new__ per triple
            splits[name] = list(map(tuple.__new__, itertools.repeat(Triple),
                                    zip(*(c[start:stop] for c in columns))))
            start = stop

        train = len(splits["train"])
        h, r, t = heads[:train], rels[:train], tails[:train]
        n, num_rel = len(entity_labels), len(relation_labels)
        # out-edge keys sort each row by (relation, tail)
        out_indptr, out_cells = _csr(h * (num_rel * n) + r * n + t, num_rel * n, n)
        indptr, indices = _csr(np.concatenate([h * n + t, t * n + h]), n, n)
        # each pair goes to the row of its lower (degree, id) end, which is
        # its tail where ``incoming`` holds
        degree = np.diff(indptr)
        incoming = (degree[t] < degree[h]) | ((degree[t] == degree[h]) & (t < h))
        owner, other = np.where(incoming, t, h), np.where(incoming, h, t)
        index = NeighborIndex(indptr, indices, out_indptr, *np.divmod(out_cells, n),
                              *_csr(owner * (2 * n) + 2 * other + incoming, 2 * n, n))

        # an entity is in a train triple iff it has a neighbor (maybe itself)
        entity_unseen = degree == 0
        relation_unseen = np.bincount(r, minlength=num_rel) == 0
        entity_unseen.flags.writeable = relation_unseen.flags.writeable = False
        if entity_unseen.any() or relation_unseen.any():
            warnings.warn(
                f"{entity_unseen.sum()} entities and {relation_unseen.sum()} "
                "relations appear only in valid/test; queries touching them "
                "will be scored as failures",
                TransductiveWarning, stacklevel=2)

        kg = cls(entity_ids=entity_ids, entity_labels=entity_labels,
                 entities=entities, relation_ids=relation_ids,
                 relation_labels=relation_labels + inverse_labels, splits=splits,
                 neighbor_index=index, entity_unseen=entity_unseen,
                 relation_unseen=relation_unseen)
        build_filter_index(kg, heads, rels, tails)
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


ENTITY_TEXT_CANDIDATES = ("entities.txt", "entity2textlong.txt", "entity2text.txt")


def load_dataset_dir(dataset_dir) -> KnowledgeGraph:
    """Load from a directory holding train/valid/test.txt and an entity text file."""
    d = Path(dataset_dir)
    for cand in ENTITY_TEXT_CANDIDATES:
        if (d / cand).exists():
            text_file = d / cand
            break
    else:
        raise DatasetError(
            f"no entity text file in {d} (tried {', '.join(ENTITY_TEXT_CANDIDATES)})")
    if not (d / "train.txt").exists():
        raise DatasetError(f"missing triple file: {d / 'train.txt'}")
    split_rows = {name: _read_triples(d / f"{name}.txt")
                  if (d / f"{name}.txt").exists() else [] for name in SPLITS}
    if not split_rows["train"]:
        raise DatasetError(f"train split is empty: {d / 'train.txt'}")
    return KnowledgeGraph.build(split_rows, _read_entity_text(text_file))


def dataset_counts(kg: KnowledgeGraph) -> dict[str, int]:
    """Entity, base-relation and per-split triple counts, in manifest order."""
    return {"entities": kg.num_entities, "relations": kg.num_base_relations,
            **{name: len(kg.splits[name]) for name in SPLITS}}


def validate_counts(kg: KnowledgeGraph,
                    expected: Mapping[str, int]) -> list[str]:
    """Compare against manifest counts; returns one message per mismatch."""
    found = dataset_counts(kg)
    diffs = []
    for key in sorted(expected):
        if key not in found:
            diffs.append(f"{key}: unknown count key (valid: {', '.join(sorted(found))})")
        elif found[key] != expected[key]:
            diffs.append(f"{key}: expected {expected[key]}, found {found[key]}")
    return diffs


def add_inverse_relations(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Return ``kg`` unchanged: ``KnowledgeGraph.build`` makes the inverse
    relations. Kept only because perfbench/worker.py calls it."""
    return kg


def fact_keys(kg: KnowledgeGraph, heads, relations, tails) -> np.ndarray:
    """Key (head * 2R + relation) * E + tail of each fact, for R base
    relations and E entities: sorted keys group the facts by query (head,
    relation), tails ascending."""
    return (heads * (2 * kg.num_base_relations) + relations) * kg.num_entities + tails


def build_filter_index(kg: KnowledgeGraph, heads: np.ndarray, relations: np.ndarray,
                       tails: np.ndarray) -> np.ndarray:
    """Set ``kg.filter_index`` to the sorted, distinct, read-only fact keys
    of the triples (h, r, t) and of their inverses (t, r + R, h)."""
    index = _sorted_unique(np.concatenate([
        fact_keys(kg, heads, relations, tails),
        fact_keys(kg, tails, relations + kg.num_base_relations, heads)]))
    index.flags.writeable = False
    kg.filter_index = index
    return index


def known_tails(kg: KnowledgeGraph, heads: Sequence[int],
                relations: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every known-true tail of each query (head, relation), in any split:
    all queries' tails concatenated, each query's ascending, and each
    query's count."""
    first = fact_keys(kg, np.asarray(heads, dtype=np.int64),
                      np.asarray(relations, dtype=np.int64), 0)
    index = kg.filter_index
    slots, counts = _range_slots(np.searchsorted(index, first),
                                 np.searchsorted(index, first + kg.num_entities))
    return index[slots] % kg.num_entities, counts


def query_columns(kg: KnowledgeGraph, split: str) -> np.ndarray:
    """(2m x 3) int64 rows (head, relation, gold) of the split's m triples:
    each triple's forward query (h, r, t), then its inverse query
    (t, r + R, h) on the inverse relation that ``build`` made."""
    triples = kg.splits[split]
    forward = np.fromiter(itertools.chain.from_iterable(triples), np.int64,
                          3 * len(triples)).reshape(-1, 3)
    inverse = forward[:, ::-1] + (0, kg.num_base_relations, 0)
    return np.stack([forward, inverse], axis=1).reshape(-1, 3)


def queries_both_directions(kg: KnowledgeGraph, split: str) -> list[Triple]:
    """``query_columns`` as ``Triple``s, for perfbench/worker.py."""
    return list(map(Triple._make, query_columns(kg, split).tolist()))


def khop_neighborhood(kg: KnowledgeGraph, head: int, k: int,
                      cap_per_hop: int = 32, seed: int = 0) -> NeighborhoodSubgraph:
    """Breadth-first neighborhood of ``head`` up to ``k`` hops.

    Discovery treats train edges as undirected (incoming plus outgoing).
    When a hop frontier exceeds ``cap_per_hop``, a seeded uniform subsample
    is kept and the subgraph is marked truncated.

    A neighborhood that is not truncated made no draw, so it is the same for
    every seed: the first call stores it in ``kg.neighborhoods`` and later
    calls with the same (head, k, cap_per_hop) return that stored subgraph
    itself, whose arrays are read-only, without sampling.
    """
    stored = kg.neighborhoods.get((head, k, cap_per_hop))
    if stored is not None:
        return stored
    if not 0 <= head < kg.num_entities:
        raise KeyError(f"unknown entity id {head}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cap_per_hop < 1:
        raise ValueError(f"cap_per_hop must be >= 1, got {cap_per_hop}")
    index = kg.neighbor_index
    rng = None  # made at the first truncation: no draw happens before it
    hops = [np.array([head], dtype=np.int64)]
    truncated = False
    for _ in range(k):
        if len(hops) == 1:
            found = index.indices[index.indptr[head]:index.indptr[head + 1]]
            candidates = found[found != head]
        else:
            # a mark per entity dedupes and sorts the neighbors without a sort
            mark = np.zeros(kg.num_entities, dtype=bool)
            frontier = hops[-1]
            rows = _range_slots(index.indptr[frontier], index.indptr[frontier + 1])[0]
            mark[index.indices[rows]] = True
            mark[np.concatenate(hops)] = False
            candidates = np.flatnonzero(mark)
        if len(candidates) > cap_per_hop:
            rng = rng or np.random.default_rng(seed)
            keep = rng.choice(len(candidates), size=cap_per_hop, replace=False)
            candidates = np.sort(candidates[keep])
            truncated = True
        hops.append(candidates)
        if not len(candidates):
            break

    hop_of = np.repeat(np.arange(len(hops)), [len(hop) for hop in hops])
    sub = NeighborhoodSubgraph(np.concatenate(hops), hop_of, truncated)
    if not truncated:
        kg.neighborhoods[head, k, cap_per_hop] = sub
    return sub


def neighborhood_seeds(kg: KnowledgeGraph, heads: Sequence[int], k: int,
                       cap_per_hop: int, seed_of: Callable[[int], int]) -> list[int]:
    """The seeds of one ``khop_neighborhood(kg, head, k, cap_per_hop, seed)``
    call per head: ``seed_of(i)`` for the i-th head unless the graph's memo
    holds its neighborhood, which the call returns without reading its
    seed, and 0 for those."""
    stored = kg.neighborhoods
    return [0 if (head, k, cap_per_hop) in stored else seed_of(i)
            for i, head in enumerate(heads)]


def combine_adjacency(kg: KnowledgeGraph, subgraphs: Sequence[NeighborhoodSubgraph]
                      ) -> tuple[np.ndarray, list[int]]:
    """Every arrow of a batch of subgraphs, linked in one pass, and the
    subgraphs' sizes: together, the arguments of ``gnn.GraphBatch``.

    The subgraphs' nodes are stacked as consecutive runs of rows; returns an
    (m, 2) int array holding each (i, j) once iff some train triple links
    the entities at rows i -> j of one subgraph (original direction;
    inverse relations add no arrows), sorted by i then j.
    Each stacked node's arrow row is scanned once, and an entry is kept
    when its other end is in the same subgraph.
    """
    if not subgraphs:
        raise ValueError("cannot combine zero subgraphs")
    sizes = [sub.num_nodes for sub in subgraphs]
    nodes = np.concatenate([sub.nodes for sub in subgraphs])
    n = len(nodes)
    # (subgraph, entity) key of each row, distinct because a subgraph holds
    # each entity once; sorted, it answers which row holds an entity
    base = np.repeat(np.arange(len(sizes)) * kg.num_entities, sizes)
    keys = base + nodes
    order = np.argsort(keys)
    sorted_keys = keys[order]
    index = kg.neighbor_index
    slots, counts = _range_slots(index.arrow_indptr[nodes], index.arrow_indptr[nodes + 1])
    entries = index.arrow_entries[slots]
    rows = np.repeat(np.arange(n), counts)
    wanted = base[rows] + (entries >> 1)
    at = np.minimum(np.searchsorted(sorted_keys, wanted), n - 1)
    linked = sorted_keys[at] == wanted
    mine, theirs = rows[linked], order[at[linked]]
    incoming = (entries[linked] & 1).astype(bool)
    cells = np.where(incoming, theirs * n + mine, mine * n + theirs)
    arrows = np.stack(np.divmod(np.sort(cells), n), axis=1)
    return arrows, sizes


def subgraph_edges(kg: KnowledgeGraph,
                   sub: NeighborhoodSubgraph) -> list[tuple[int, int, int]]:
    """(i, j, relation) of each distinct train triple nodes[i] -> nodes[j],
    by i then (relation, tail)."""
    index = kg.neighbor_index
    nodes = sub.nodes
    position = np.full(kg.num_entities, -1, dtype=np.int64)
    position[nodes] = np.arange(len(nodes))
    slots, counts = _range_slots(index.out_indptr[nodes], index.out_indptr[nodes + 1])
    j = position[index.out_tails[slots]]
    linked = j >= 0
    i = np.repeat(np.arange(len(nodes)), counts)[linked]
    return list(zip(i.tolist(), j[linked].tolist(),
                    index.out_relations[slots[linked]].tolist()))
