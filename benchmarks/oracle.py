"""Brute-force reference for short melodies: every tag path enumerated.

It reads the model file itself, so it shares no inference code with the
program it judges; only the feature definition (``extract_features``)
comes from ornatag.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from ornatag.tagger import extract_features

MAX_NOTES = 6

# tolerance on probability mass, as in the acceptance tests
PROB_TOL = 1e-9


def read_model(path: Path):
    """(feature index, emission weights F x H, transitions H x H) of a model file."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != "ORNATAG-MODEL v1":
        raise ValueError(f"unexpected model header {lines[0]!r}")
    h = int(lines[1].split()[1])
    i = 2 + h
    f = int(lines[i].split()[1])
    names = lines[i + 1:i + 1 + f]
    i += 2 + f
    emissions = np.array([[float(x) for x in lines[i + r].split()]
                          for r in range(f)]).reshape(f, h)
    i += f + 1
    transitions = np.array([[float(x) for x in lines[i + r].split()]
                            for r in range(h)])
    return {name: k for k, name in enumerate(names)}, emissions, transitions


def enumerate_paths(model, melody) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(every path in lexicographic order, its score, H x T marginals)."""
    index, emissions, transitions = model
    length = len(melody)
    h = transitions.shape[0]
    scores_e = np.zeros((length, h))
    for t in range(length):
        rows = [index[f] for f in extract_features(melody, t) if f in index]
        if rows:
            scores_e[t] = emissions[rows].sum(axis=0)
    paths = np.array(list(itertools.product(range(h), repeat=length)))
    scores = (scores_e[np.arange(length), paths].sum(axis=1)
              + transitions[paths[:, :-1], paths[:, 1:]].sum(axis=1))
    weights = np.exp(scores - scores.max())
    marginals = np.stack([
        np.bincount(paths[:, t], weights=weights, minlength=h)
        for t in range(length)], axis=1) / weights.sum()
    return paths, scores, marginals
