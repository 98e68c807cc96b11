"""Brute-force reference implementations used to check the real code.

Everything here is deliberately naive: path enumeration instead of
dynamic programming, central finite differences instead of analytic
gradients.  Only usable for tiny instances (H ** T up to a few
thousand), which is the point.
"""

import itertools
from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

from ornatag.score import (
    Melody,
    Note,
    StateSequence,
    TaggedCorpus,
    TagSet,
    parse_note,
)
from ornatag.tagger import FeatureVectorizer, TaggerModel, TrainingMeta


def melody_from_tokens(tokens):
    """Melody from canonical note tokens such as ``["C4:1", "D4:2"]``."""
    return Melody(tuple(parse_note(t) for t in tokens))


def score_path(E, Tr, path):
    """Left-to-right score of one path given T x H emissions."""
    total = E[0][path[0]]
    for t in range(1, len(path)):
        total += Tr[path[t - 1]][path[t]] + E[t][path[t]]
    return total


def enumerate_paths(E, Tr):
    """All (path, score) pairs in lexicographic path order."""
    T, H = np.asarray(E).shape
    return [(path, score_path(E, Tr, path))
            for path in itertools.product(range(H), repeat=T)]


def brute_log_z(E, Tr):
    return logsumexp([score for _, score in enumerate_paths(E, Tr)])


def brute_marginals(E, Tr):
    """H x T posterior marginals by explicit path enumeration."""
    T, H = np.asarray(E).shape
    scored = enumerate_paths(E, Tr)
    log_z = logsumexp([score for _, score in scored])
    out = np.empty((H, T))
    for t in range(T):
        for k in range(H):
            members = [score for path, score in scored if path[t] == k]
            out[k, t] = np.exp(logsumexp(members) - log_z) if members else 0.0
    return out


def brute_viterbi(E, Tr):
    """(best path, best score); first maximum in lex order wins ties."""
    best_path, best_score = None, -np.inf
    for path, score in enumerate_paths(E, Tr):
        if score > best_score:
            best_path, best_score = path, score
    return best_path, best_score


def central_difference_gradient(fn, w, step=1e-5):
    """Gradient of fn at w by symmetric differences, one coordinate at a time."""
    w = np.asarray(w, dtype=float)
    grad = np.empty_like(w)
    for i in range(w.size):
        up = w.copy()
        up[i] += step
        down = w.copy()
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2 * step)
    return grad


# -- random instance builders ----------------------------------------------------

_DURATIONS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
              Fraction(2), Fraction(3), Fraction(4))


def random_melody(rng, length):
    notes = []
    for _ in range(length):
        step = "CDEFGAB"[rng.integers(0, 7)]
        octave = int(rng.integers(2, 6))
        duration = _DURATIONS[rng.integers(0, len(_DURATIONS))]
        notes.append(Note(step, 0, octave, duration))
    return Melody(tuple(notes))


def random_tagset(h):
    return TagSet(tuple(f"tag{i}" for i in range(h)))


def random_model(rng, melody, h, scale=1.0):
    """Model whose vectorizer knows exactly this melody's features."""
    tagset = random_tagset(h)
    vectorizer = FeatureVectorizer.build([melody])
    emissions = rng.normal(0.0, scale, size=(len(vectorizer), h))
    transitions = rng.normal(0.0, scale, size=(h, h))
    meta = TrainingMeta(epochs=0, final_loss=0.0, seed=0)
    return TaggerModel(tagset, vectorizer, emissions, transitions, meta)


def random_tagged_corpus(rng, tagset, n_entries, max_len=8):
    entries = []
    for _ in range(n_entries):
        melody = random_melody(rng, int(rng.integers(1, max_len + 1)))
        states = StateSequence(tuple(
            int(rng.integers(0, len(tagset))) for _ in range(len(melody))))
        entries.append((melody, states))
    return TaggedCorpus(tagset, tuple(entries))
