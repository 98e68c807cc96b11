"""Linear-chain CRF tagger: features, inference, and training.

The model scores a tag path y for a melody as::

    score(y) = sum_t emission(t, y_t) + sum_{t>=1} transition(y_{t-1}, y_t)

where emission(t, k) adds the weights of the binary features active at
position t.  There are no start or end transition weights.  All
sequence sums run in log space via log-sum-exp, so inference stays
finite for long melodies and large weights.

Inference offers two views: :func:`posterior_marginals` returns the
H x T matrix of per-position posteriors P(y_t = k | O) (the prediction
matrix handed to the fusion step), and :func:`viterbi_decode` returns
the maximum-scoring path, breaking ties toward the lexicographically
smallest index sequence (the base prediction sequence fed to rules).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus, ShapeMismatch
from .score import Melody, StateSequence, TaggedCorpus, TagSet

_DURATION_BUCKETS = (
    (Fraction(1, 4), "(0,1/4]"),
    (Fraction(1, 2), "(1/4,1/2]"),
    (Fraction(1), "(1/2,1]"),
    (Fraction(2), "(1,2]"),
    (Fraction(3), "(2,3]"),
)

_LAST_BUCKET = "(3,inf)"


def duration_bucket(duration: Fraction) -> str:
    """Half-open bucket label for a quarter-length duration."""
    for upper, label in _DURATION_BUCKETS:
        if duration <= upper:
            return label
    return _LAST_BUCKET


def _sign(delta: int) -> str:
    if delta > 0:
        return "+"
    if delta < 0:
        return "-"
    return "0"


def extract_features(melody: Melody, t: int) -> frozenset[str]:
    """Binary feature names active at position ``t``.

    Local note identity (step, alteration, octave, duration bucket),
    melodic direction into and out of the note, and boundary markers.
    """
    T = len(melody)
    if not 0 <= t < T:
        raise IndexError(f"position {t} outside melody of length {T}")
    note = melody[t]
    features = {
        f"step={note.step}",
        f"alt={note.alteration}",
        f"octave={note.octave}",
        f"durbucket={duration_bucket(note.duration_ql)}",
    }
    if t == 0:
        features.add("prev_interval_sign=BOS")
        features.add("pos=BOS")
    else:
        features.add(f"prev_interval_sign={_sign(note.midi - melody[t - 1].midi)}")
    if t == T - 1:
        features.add("next_interval_sign=EOS")
        features.add("pos=EOS")
    else:
        features.add(f"next_interval_sign={_sign(melody[t + 1].midi - note.midi)}")
    return frozenset(features)


class FeatureVectorizer:
    """Feature-name to index mapping, frozen after training data is seen."""

    def __init__(self):
        self._indices: dict[str, int] = {}
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def add(self, name: str) -> int:
        if self._frozen:
            raise ValueError("vectorizer is frozen")
        if name not in self._indices:
            self._indices[name] = len(self._indices)
        return self._indices[name]

    def freeze(self) -> "FeatureVectorizer":
        self._frozen = True
        return self

    def index(self, name: str) -> int | None:
        """Index of ``name``; None when unseen (weight zero at inference)."""
        return self._indices.get(name)

    @classmethod
    def build(cls, melodies: Iterable[Melody],
              exclude: frozenset[str] = frozenset()) -> "FeatureVectorizer":
        """Observe every position of every melody, in order, then freeze.

        Feature names are visited in sorted order per position so the
        index assignment is reproducible.
        """
        vec = cls()
        for melody in melodies:
            for t in range(len(melody)):
                for name in sorted(extract_features(melody, t)):
                    if name not in exclude:
                        vec.add(name)
        return vec.freeze()

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "FeatureVectorizer":
        vec = cls()
        for name in names:
            vec.add(name)
        return vec.freeze()


@dataclass(frozen=True)
class TrainingMeta:
    epochs: int
    final_loss: float
    seed: int


@dataclass(frozen=True, eq=False)
class TaggerModel:
    """Frozen CRF parameters; safe for concurrent inference."""

    tagset: TagSet
    vectorizer: FeatureVectorizer
    emission_weights: np.ndarray
    transition_weights: np.ndarray
    training_meta: TrainingMeta

    def __post_init__(self):
        H = len(self.tagset)
        F = len(self.vectorizer)
        emissions = np.asarray(self.emission_weights, dtype=float)
        transitions = np.asarray(self.transition_weights, dtype=float)
        object.__setattr__(self, "emission_weights", emissions)
        object.__setattr__(self, "transition_weights", transitions)
        if emissions.shape != (F, H):
            raise ShapeMismatch(
                f"emission weights {emissions.shape} != ({F}, {H})")
        if transitions.shape != (H, H):
            raise ShapeMismatch(
                f"transition weights {transitions.shape} != ({H}, {H})")
        if not (np.all(np.isfinite(emissions))
                and np.all(np.isfinite(transitions))):
            raise ValueError("model weights must be finite")

    @property
    def num_features(self) -> int:
        return len(self.vectorizer)


@dataclass(frozen=True, eq=False)
class PredictionMatrix:
    """Posterior marginals: H rows (tags) by T columns (positions)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={values.ndim}")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("entries must lie in [0, 1]")
        sums = values.sum(axis=0)
        if not np.allclose(sums, 1.0, rtol=0, atol=1e-9):
            raise ValueError(f"columns must sum to 1 within 1e-9: {sums}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _feature_indices(model: TaggerModel, melody: Melody) -> list[list[int]]:
    index = model.vectorizer.index
    out = []
    for t in range(len(melody)):
        idx = [index(name) for name in sorted(extract_features(melody, t))]
        out.append([i for i in idx if i is not None])
    return out


def emission_matrix(model: TaggerModel, melody: Melody) -> np.ndarray:
    """T x H matrix of emission scores; unseen features contribute zero."""
    T = len(melody)
    H = len(model.tagset)
    E = np.zeros((T, H))
    for t, idx in enumerate(_feature_indices(model, melody)):
        if idx:
            E[t] = model.emission_weights[idx].sum(axis=0)
    return E


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, stable for finite input.

    The maximal terms are taken out of the sum and added back through
    ``log1p``, the same sequence of operations as scipy 1.17's
    ``logsumexp`` for real input, so results match it bit for bit
    without its per-call dispatch cost.  A non-finite result falls back
    to the direct formula, as there.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.add.reduce(is_max, axis=axis, keepdims=True, dtype=a.dtype)
        s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - a_max),
                          axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.add.reduce(np.exp(a), axis=axis,
                                          keepdims=True))
            out = np.where(finite, out, direct)
    return np.squeeze(out, axis=axis)


def _forward_backward(E: np.ndarray, Tr: np.ndarray):
    """Log-space alpha/beta recursions; returns (log_alpha, log_beta, log_Z)."""
    T, H = E.shape
    log_alpha = np.empty((T, H))
    log_alpha[0] = E[0]
    for t in range(1, T):
        log_alpha[t] = E[t] + _logsumexp(
            log_alpha[t - 1][:, None] + Tr, axis=0)
    log_beta = np.zeros((T, H))
    for t in range(T - 2, -1, -1):
        log_beta[t] = _logsumexp(
            Tr + (E[t + 1] + log_beta[t + 1])[None, :], axis=1)
    log_z = _logsumexp(log_alpha[T - 1], axis=0)
    return log_alpha, log_beta, log_z


def posterior_marginals(model: TaggerModel, melody: Melody) -> PredictionMatrix:
    """P(y_t = k | O) for every position and tag, via forward-backward."""
    E = emission_matrix(model, melody)
    log_alpha, log_beta, log_z = _forward_backward(E, model.transition_weights)
    marginals = np.exp(log_alpha + log_beta - log_z).T
    # exact within float error already; renormalize to pin column sums
    marginals /= marginals.sum(axis=0, keepdims=True)
    return PredictionMatrix(marginals)


def viterbi_decode(model: TaggerModel, melody: Melody) -> StateSequence:
    """Maximum-scoring path, smallest index sequence among ties.

    Runs the max recursion backward to get, for every (t, k), the best
    achievable suffix score starting in k, then selects greedily from
    the front.  Greedy forward selection over suffix maxima yields the
    lexicographically smallest argmax path, which forward Viterbi with
    backpointers does not guarantee.
    """
    E = emission_matrix(model, melody)
    Tr = model.transition_weights
    T, H = E.shape
    suffix = np.empty((T, H))
    suffix[T - 1] = E[T - 1]
    for t in range(T - 2, -1, -1):
        suffix[t] = E[t] + np.max(Tr + suffix[t + 1][None, :], axis=1)
    path = np.empty(T, dtype=int)
    path[0] = int(np.argmax(suffix[0]))
    for t in range(1, T):
        path[t] = int(np.argmax(Tr[path[t - 1]] + suffix[t]))
    return StateSequence(tuple(int(k) for k in path))


# -- training --------------------------------------------------------------------


def flatten_weights(model: TaggerModel) -> np.ndarray:
    """Emission rows first, then transition rows, both row-major."""
    return np.concatenate([
        model.emission_weights.ravel(),
        model.transition_weights.ravel(),
    ])


def unflatten_weights(flat: np.ndarray, num_features: int,
                      num_tags: int) -> tuple[np.ndarray, np.ndarray]:
    split = num_features * num_tags
    emissions = flat[:split].reshape(num_features, num_tags)
    transitions = flat[split:].reshape(num_tags, num_tags)
    return emissions, transitions


def nll_and_gradient(model: TaggerModel, batch: TaggedCorpus,
                     l2: float) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the batch plus an L2 penalty.

    loss = sum over entries of (log Z - score(gold)) + (l2/2) * ||w||^2;
    the gradient (expected minus empirical feature counts, plus l2*w)
    comes back flattened emission-rows-then-transition-rows.
    """
    if len(batch) == 0:
        raise EmptyCorpus("gradient of an empty batch")
    H = len(model.tagset)
    Tr = model.transition_weights
    grad_emission = np.zeros_like(model.emission_weights)
    grad_transition = np.zeros_like(Tr)
    loss = 0.0
    for melody, gold in batch:
        T = len(melody)
        indices = _feature_indices(model, melody)
        E = np.zeros((T, H))
        for t, idx in enumerate(indices):
            if idx:
                E[t] = model.emission_weights[idx].sum(axis=0)
        log_alpha, log_beta, log_z = _forward_backward(E, Tr)
        gold_score = E[0, gold[0]]
        for t in range(1, T):
            gold_score += Tr[gold[t - 1], gold[t]] + E[t, gold[t]]
        loss += log_z - gold_score
        unigram = np.exp(log_alpha + log_beta - log_z)
        for t, idx in enumerate(indices):
            if idx:
                grad_emission[idx] += unigram[t]
            grad_emission[idx, gold[t]] -= 1.0
        for t in range(1, T):
            log_pair = (log_alpha[t - 1][:, None] + Tr
                        + (E[t] + log_beta[t])[None, :] - log_z)
            grad_transition += np.exp(log_pair)
            grad_transition[gold[t - 1], gold[t]] -= 1.0
    loss += 0.5 * l2 * (np.sum(model.emission_weights ** 2)
                        + np.sum(Tr ** 2))
    grad_emission += l2 * model.emission_weights
    grad_transition += l2 * Tr
    gradient = np.concatenate([grad_emission.ravel(), grad_transition.ravel()])
    return float(loss), gradient


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch gradient-descent hyperparameters.

    ``exclude_features`` drops the named features from the vectorizer
    before training, used to withhold information in experiments.
    """

    epochs: int = 50
    step_size: float = 0.1
    l2: float = 0.01
    batch_size: int = 32
    seed: int = 0
    exclude_features: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


ProgressFn = Callable[[int, float], None]


def train(corpus: TaggedCorpus, config: TrainConfig = TrainConfig(),
          progress: ProgressFn | None = None) -> TaggerModel:
    """Fit CRF weights by seeded mini-batch gradient descent.

    The vectorizer is built from the corpus in entry order, then
    frozen; weights start at zero.  Each batch update subtracts
    ``step_size`` times the per-token-averaged batch gradient, with the
    L2 term prorated by the batch's share of corpus entries so a full
    epoch applies the whole penalty exactly once.  Identical corpus,
    config, and seed give bit-identical models.  ``progress`` receives
    (epoch number, epoch loss) after every epoch.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    tagset = corpus.tagset
    H = len(tagset)
    vectorizer = FeatureVectorizer.build(
        (melody for melody, _ in corpus), exclude=config.exclude_features)
    F = len(vectorizer)
    emissions = np.zeros((F, H))
    transitions = np.zeros((H, H))
    meta = TrainingMeta(epochs=0, final_loss=0.0, seed=config.seed)
    model = TaggerModel(tagset, vectorizer, emissions, transitions, meta)
    rng = np.random.default_rng(config.seed)
    n_entries = len(corpus.entries)
    for epoch in range(config.epochs):
        order = rng.permutation(n_entries)
        epoch_loss = 0.5 * config.l2 * (
            np.sum(model.emission_weights ** 2)
            + np.sum(model.transition_weights ** 2))
        for start in range(0, n_entries, config.batch_size):
            chosen = order[start:start + config.batch_size]
            entries = tuple(corpus.entries[i] for i in chosen)
            batch = TaggedCorpus(tagset, entries)
            batch_l2 = config.l2 * len(entries) / n_entries
            loss, gradient = nll_and_gradient(model, batch, batch_l2)
            epoch_loss += loss - 0.5 * batch_l2 * (
                np.sum(model.emission_weights ** 2)
                + np.sum(model.transition_weights ** 2))
            tokens = batch.token_count
            flat = flatten_weights(model) - config.step_size * gradient / tokens
            emissions, transitions = unflatten_weights(flat, F, H)
            model = replace(model, emission_weights=emissions,
                            transition_weights=transitions)
        if progress is not None:
            progress(epoch + 1, float(epoch_loss))
    final_loss, _ = nll_and_gradient(model, corpus, config.l2)
    meta = TrainingMeta(epochs=config.epochs, final_loss=float(final_loss),
                        seed=config.seed)
    return replace(model, training_meta=meta)
