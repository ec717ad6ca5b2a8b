"""The committed quality evidence (``QUALITY_*.json``) is internally
consistent: every setting reports every listed seed, and each summary and
gate figure is the one its per-seed values give."""

import json
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
EVIDENCE = sorted(REPO.glob("QUALITY_*.json"))


def test_evidence_files_are_present():
    assert {"QUALITY_13.json", "QUALITY_21.json", "QUALITY_28.json"} \
        <= {path.name for path in EVIDENCE}


@pytest.mark.parametrize("path", EVIDENCE, ids=lambda path: path.name)
def test_summaries_match_the_per_seed_values(path):
    doc = json.loads(path.read_text())
    seeds = [str(seed) for seed in doc["seeds"]]
    assert seeds
    for name, setting in doc["settings"].items():
        per_seed = setting["per_seed"]
        assert sorted(per_seed) == sorted(seeds), name
        for metric, summary in setting["summary"].items():
            values = [per_seed[seed][metric] for seed in seeds]
            assert summary["mean"] == pytest.approx(np.mean(values), abs=1e-6), \
                f"{name} {metric} mean"
            assert summary["spread"] == pytest.approx(max(values) - min(values),
                                                      abs=1e-6), f"{name} {metric} spread"
    for metric, gate in doc["gate"].items():
        if metric == "rule":
            continue
        parent = doc["settings"]["parent"]["summary"][metric]
        change = doc["settings"]["change"]["summary"][metric]
        assert (gate["parent_mean"], gate["parent_spread"], gate["change_mean"]) \
            == (parent["mean"], parent["spread"], change["mean"]), f"gate {metric}"
