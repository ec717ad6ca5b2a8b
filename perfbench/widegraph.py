"""Seeded wide knowledge graph with a skewed (Zipf-like) degree distribution.

Entity popularity follows a power law over a seeded permutation of the
entities, so a few hubs reach ``cap_per_hop`` while most entities stay small.
Every entity and every relation is guaranteed a train triple (one "coverage"
triple per entity), and valid/test triples are drawn only from the remaining
triples, so the split is transductive: no ``TransductiveWarning`` fires and
no query falls back to the unseen-entity rank.
"""

from __future__ import annotations

import numpy as np

# sizes of the full-scale graph; the smoke check passes smaller ones
ENTITIES = 5_000
TRIPLES = 40_000
RELATIONS = 20
HELD_OUT = 500          # triples per held-out split (valid and test)
ZIPF_EXPONENT = 1.0
DESC_TOKENS = 8

# fixed description vocabulary: 16 x 30 two-syllable words
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n",
           "p", "r", "s", "t", "v", "z", "ch", "sh")
_RIMES = tuple(f"{v}{c}" for v in "aeiou" for c in ("", "n", "r", "l", "s", "x"))
VOCABULARY = tuple(f"{o}{r}" for o in _ONSETS for r in _RIMES)

LabelTriple = tuple[str, str, str]


def entity_label(e: int) -> str:
    return f"ent{e:05d}"


def relation_label(r: int) -> str:
    return f"rel{r:02d}"


def generate_wide_kg(seed: int, entities: int = ENTITIES,
                     triples: int = TRIPLES, relations: int = RELATIONS,
                     held_out: int = HELD_OUT):
    """Return (split label triples, entity text table) for one seed.

    Counts are exact: ``entities`` entities and ``relations`` relations, all
    seen in train, and ``triples`` distinct triples of which ``held_out`` go
    to valid and ``held_out`` to test.
    """
    if triples < entities + 2 * held_out or relations > entities:
        raise ValueError("need one coverage triple per entity, covering every "
                         "relation, plus the held-out splits")
    rng = np.random.default_rng(seed)
    rank = rng.permutation(entities)
    weight = 1.0 / (rank + 1.0) ** ZIPF_EXPONENT
    weight /= weight.sum()

    chosen: set[tuple[int, int, int]] = set()
    coverage: list[tuple[int, int, int]] = []
    for e in range(entities):
        # relation e % relations puts every relation into train as well
        while True:
            t = int(rng.choice(entities, p=weight))
            tr = (e, e % relations, t)
            if t != e and tr not in chosen:
                break
        chosen.add(tr)
        coverage.append(tr)

    extra: list[tuple[int, int, int]] = []
    while len(chosen) < triples:
        need = triples - len(chosen)
        heads = rng.choice(entities, size=need, p=weight)
        tails = rng.choice(entities, size=need, p=weight)
        rels = rng.integers(0, relations, size=need)
        for h, r, t in zip(heads.tolist(), rels.tolist(), tails.tolist()):
            tr = (h, r, t)
            if h != t and tr not in chosen and len(chosen) < triples:
                chosen.add(tr)
                extra.append(tr)

    order = rng.permutation(len(extra))
    held = [extra[i] for i in order[:2 * held_out]]
    held_set = set(held)
    train = coverage + [tr for tr in extra if tr not in held_set]

    def labels(rows):
        return [(entity_label(h), relation_label(r), entity_label(t))
                for h, r, t in rows]

    splits = {"train": labels(train), "valid": labels(held[:held_out]),
              "test": labels(held[held_out:])}
    words = rng.choice(len(VOCABULARY), size=(entities, DESC_TOKENS))
    texts = {entity_label(e): (entity_label(e),
                               " ".join(VOCABULARY[w] for w in words[e]))
             for e in range(entities)}
    return splits, texts
