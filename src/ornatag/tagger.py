"""Linear-chain CRF tagger: features, inference, and training.

The model scores a tag path y for a melody as::

    score(y) = sum_t emission(t, y_t) + sum_{t>=1} transition(y_{t-1}, y_t)

where emission(t, k) adds the weights of the binary features active at
position t.  There are no start or end transition weights.  All
sequence sums run in log space via log-sum-exp, so long melodies do
not overflow.  Weights so large that the rounding of alpha + beta -
log Z leaves float range make :func:`infer` raise :class:`InputError`
rather than return non-finite posteriors, and so does a training update
that takes the weights out of float range.

Inference offers two views: :func:`posterior_marginals` returns the
H x T matrix of per-position posteriors P(y_t = k | O) (the prediction
matrix handed to the fusion step), and :func:`viterbi_decode` returns
the maximum-scoring path, breaking ties toward the lexicographically
smallest index sequence (the base prediction sequence fed to rules).
Both are :func:`infer` on a batch of one; ``infer`` gives both views
of a list of melodies from one compile and one emission build.

Training and inference share one compiled, batched path.  A melody is
compiled once into a T x K int32 array: row t holds the indices of the
features active at t, in sorted name order, built once per distinct
note context (notes numbered by value) and gathered per position.
Unseen features and the padding of short rows point at a sentinel
index F (the feature count), whose weight row is zero, so emissions
are K gathers and adds with no branch.  A batch stacks into B x T x K
indices padded past every melody's length; the recursions run over the
B x T x H batch.  One backward pass (:func:`_backward`) gives both log
beta and the Viterbi suffix maxima, reducing with log-sum-exp or with
max, and a length mask holds its values at zero from each melody's last
position.  A vectorizer's names are fixed when it is
built; ``train`` learns them in the same pass that compiles the
corpus.  Each melody's gradient is scattered with ``np.add.at``,
which adds in index order: the order of the per-position loop it
replaced (melody, then position, each marginal before the gold
count).  numpy reduces every batch row as it reduced the single
melody, so models, marginals and paths are bit-identical to the
per-melody loops'.  Each alpha and backward step reduces one reused
B x H x H buffer in place, under one ``errstate`` per recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError, ShapeMismatch
from .score import (Melody, StateSequence, TaggedCorpus, TagMatrix, TagSet,
                    note_numbers)

# (numerator, denominator, label) of each bucket's inclusive upper bound
_DURATION_BUCKETS = (
    (1, 4, "(0,1/4]"),
    (1, 2, "(1/4,1/2]"),
    (1, 1, "(1/2,1]"),
    (2, 1, "(1,2]"),
    (3, 1, "(2,3]"),
)

_LAST_BUCKET = "(3,inf)"


def duration_bucket(duration: Fraction) -> str:
    """Half-open bucket label for a quarter-length duration.

    ``n/d <= a/b`` is tested as ``n * b <= a * d`` on integers (a
    Fraction's denominator is positive), which is exact and skips
    Fraction's comparison machinery.
    """
    n, d = duration.numerator, duration.denominator
    for upper_n, upper_d, label in _DURATION_BUCKETS:
        if n * upper_d <= upper_n * d:
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
    """Distinct feature names at indices 0.., fixed at construction."""

    def __init__(self, names: Iterable[str]):
        self._indices: dict[str, int] = {}
        for name in names:
            if name in self._indices:
                raise ValueError(f"repeated feature name {name!r}")
            self._indices[name] = len(self._indices)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def index(self, name: str) -> int | None:
        """Index of ``name``; None when unseen (weight zero at inference)."""
        return self._indices.get(name)

    @classmethod
    def build(cls, melodies: Iterable[Melody],
              exclude: frozenset[str] = frozenset()) -> "FeatureVectorizer":
        """The melodies' feature names not in ``exclude``, as first met."""
        return _compile(melodies, exclude=exclude)[0]


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


class PredictionMatrix(TagMatrix):
    """Posterior marginals p2: entries in [0, 1], columns summing to 1."""

    def _check(self, values: np.ndarray) -> None:
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("entries must lie in [0, 1]")
        sums = values.sum(axis=0)
        if not np.allclose(sums, 1.0, rtol=0, atol=1e-9):
            raise ValueError(f"columns must sum to 1 within 1e-9: {sums}")


def _compile(melodies: Iterable[Melody],
             vectorizer: FeatureVectorizer | None = None,
             exclude: frozenset[str] = frozenset()
             ) -> tuple[FeatureVectorizer, list[np.ndarray]]:
    """The vectorizer, and each melody's T x K int32 feature indices.

    Row t lists the indices of the features active at position t in
    sorted name order, extracted once per distinct context: note, and
    interval sign (or BOS/EOS) into and out of it.  Unseen features and
    the padding of rows shorter than K point at the sentinel
    ``len(vectorizer)``.  Without a ``vectorizer`` one is learned in the
    same pass: every name not in ``exclude``, indexed as first met.
    """
    learned: dict[str, int] = {}
    index = learned.get if vectorizer is None else vectorizer.index
    notes: dict = {}
    midi: list[int] = []
    rows: dict[int, int] = {}  # context key -> row number
    indices: list[list[int | None]] = []  # per row
    numbers = []
    for melody in melodies:
        ids = note_numbers(melody, notes)
        midi += [note.midi for note in list(notes)[len(midi):]]
        pitch = np.array(midi)[ids]
        sign = np.sign(pitch[1:] - pitch[:-1]) + 1
        edge = [3]  # BOS before the first note, EOS after the last
        keys = (ids * 16 + np.concatenate([edge, sign]) * 4
                + np.concatenate([sign, edge])).tolist()
        for t, key in enumerate(keys):
            if key not in rows:
                names = sorted(extract_features(melody, t))
                if vectorizer is None:
                    for name in names:
                        if name not in exclude:
                            learned.setdefault(name, len(learned))
                rows[key] = len(indices)
                indices.append(list(map(index, names)))
        numbers.append(np.array([rows[key] for key in keys]))
    if vectorizer is None:
        vectorizer = FeatureVectorizer(learned)
    F = len(vectorizer)
    widths = np.array([len(row) for row in indices], dtype=int)
    table = np.full((len(indices), widths.max(initial=0)), F, dtype=np.int32)
    for row, known in zip(table, indices):
        row[:len(known)] = [F if i is None else i for i in known]
    return vectorizer, [table[n, :widths[n].max()] for n in numbers]


def _pad(arrays: Sequence[np.ndarray], fill: int) -> np.ndarray:
    """Stack arrays into one, each right-padded with ``fill`` on every axis."""
    shape = np.max([a.shape for a in arrays], axis=0)
    out = np.full((len(arrays), *shape), fill, dtype=arrays[0].dtype)
    for b, a in enumerate(arrays):
        out[(b, *map(slice, a.shape))] = a
    return out


def _emissions(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """... x H emission scores of ... x K compiled feature indices.

    The weight rows are added in K order, the order of a per-position
    ``weights[idx].sum(axis=0)``; the sentinel index reads a zero row.
    """
    padded = np.vstack([weights, np.zeros((1, weights.shape[1]))])
    E = padded[features[..., 0]]
    for k in range(1, features.shape[-1]):
        E += padded[features[..., k]]
    return E


def emission_matrix(model: TaggerModel, melody: Melody) -> np.ndarray:
    """T x H matrix of emission scores; unseen features contribute zero."""
    return _emissions(model.emission_weights,
                      _compile([melody], model.vectorizer)[1][0])


def _lse_core(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, in place in ``a``; the caller
    silences floating-point warnings.

    The maximal terms are taken out of the sum and added back through
    ``log1p``, the same sequence of operations as scipy 1.17's
    ``logsumexp`` for real input, so results match it bit for bit
    without its per-call dispatch cost.  scipy's fallback to the direct
    formula is left out: a finite max gives a finite result, and a max
    of +-inf or NaN already gives the direct formula's.
    """
    top = np.maximum.reduce(a, axis=axis, keepdims=True)
    ties = a == top
    count = np.add.reduce(ties, axis=axis, keepdims=True, dtype=float)
    np.subtract(a, top, out=a)
    np.copyto(a, -np.inf, where=ties)
    total = np.add.reduce(np.exp(a, out=a), axis=axis, keepdims=True)
    total /= count
    return (np.log1p(total) + np.log(count) + top).squeeze(axis)


def _backward(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray,
              reduce) -> np.ndarray:
    """B x T x H backward values of a padded batch, held at zero from
    each entry's last position on.

    Each step reduces transition + next emission + next value over the
    next tag: ``v[t] = reduce(Tr + E[t + 1] + v[t + 1], 2)``.
    :func:`_lse_core` gives log beta, and ``np.maximum.reduce`` the best
    suffix score after each (t, k).  The caller sets ``errstate``.
    """
    B, T, H = E.shape
    inside = (np.arange(T - 1)[:, None] < lengths - 1)[:, :, None]
    work = np.empty((B, H, H))  # each step's terms, overwritten by reduce
    ahead = np.empty((B, H))
    v = np.zeros((B, T, H))
    for t in range(T - 2, -1, -1):
        np.add(E[:, t + 1], v[:, t + 1], out=ahead)
        np.add(Tr, ahead[:, None, :], out=work)
        np.copyto(v[:, t], reduce(work, 2), where=inside[t])
    return v


def _forward_backward(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray):
    """Log-space alpha/beta recursions over a padded B x T x H batch.

    Entry b occupies the first ``lengths[b]`` positions of ``E``; its
    log Z is read at its last position.  Returns (log_alpha, log_beta,
    log_z) with log_z of shape (B,); values past an entry's length are
    finite and meaningless.
    """
    B, T, H = E.shape
    work = np.empty((B, H, H))  # each step's terms, overwritten by the core
    log_alpha = np.empty((B, T, H))
    log_alpha[:, 0] = E[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(1, T):
            np.add(log_alpha[:, t - 1, :, None], Tr, out=work)
            np.add(E[:, t], _lse_core(work, 1), out=log_alpha[:, t])
        log_z = _lse_core(log_alpha[np.arange(B), lengths - 1], 1)
        log_beta = _backward(E, Tr, lengths, _lse_core)
    return log_alpha, log_beta, log_z


def _viterbi(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """B x T best paths of a padded batch; ties go to the smallest sequence.

    With the best suffix score of every (t, k) from :func:`_backward`,
    selects greedily from the front.  Greedy forward selection over
    suffix maxima yields the lexicographically smallest argmax path,
    which forward Viterbi with backpointers does not guarantee.  Path
    values past an entry's length are meaningless.
    """
    B, T, H = E.shape
    best = _backward(E, Tr, lengths, np.maximum.reduce)
    best += E
    step = np.empty((B, H))
    path = np.empty((B, T), dtype=int)
    path[:, 0] = best[:, 0].argmax(axis=1)
    for t in range(1, T):
        path[:, t] = np.add(Tr[path[:, t - 1]], best[:, t],
                            out=step).argmax(axis=1)
    return path


def _crf_pass(model: TaggerModel, features: Sequence[np.ndarray]):
    """(lengths, E, log_alpha, log_beta, log_z) of compiled melodies: one
    emission build over the padded batch, and forward-backward on it."""
    lengths = np.array([len(rows) for rows in features])
    E = _emissions(model.emission_weights, _pad(features, model.num_features))
    return (lengths, E,
            *_forward_backward(E, model.transition_weights, lengths))


def infer(model: TaggerModel, melodies: Sequence[Melody]
          ) -> list[tuple[PredictionMatrix, StateSequence]]:
    """Posterior marginals and Viterbi path of each melody, in one batch.

    The melodies are compiled once and their emissions built once over
    the padded batch; forward-backward and Viterbi then share them.
    Each melody's H x T marginals are renormalized to pin their column
    sums, and its path is the maximum-scoring one, smallest index
    sequence among ties.  Marginals that are not finite, from weights
    too large for float range, raise InputError.
    """
    if not melodies:
        return []
    _, features = _compile(melodies, model.vectorizer)
    lengths, E, log_alpha, log_beta, log_z = _crf_pass(model, features)
    paths = _viterbi(E, model.transition_weights, lengths)
    results = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for b, T in enumerate(lengths):
            marginals = np.exp(log_alpha[b, :T] + log_beta[b, :T] - log_z[b]).T
            # exact within float error already; renormalize to pin column sums
            marginals /= marginals.sum(axis=0, keepdims=True)
            if not np.isfinite(marginals).all():
                raise InputError("posteriors of a melody are not finite: "
                                 "the model's weights are too large")
            results.append((PredictionMatrix(marginals),
                            StateSequence(tuple(paths[b, :T].tolist()))))
    return results


def posterior_marginals(model: TaggerModel, melody: Melody) -> PredictionMatrix:
    """P(y_t = k | O) for every position and tag, via forward-backward."""
    return infer(model, [melody])[0][0]


def viterbi_decode(model: TaggerModel, melody: Melody) -> StateSequence:
    """Maximum-scoring path, smallest index sequence among ties."""
    return infer(model, [melody])[0][1]


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


def _batch_nll(model: TaggerModel, features: Sequence[np.ndarray],
               golds: Sequence[np.ndarray], loss: float = 0.0,
               counts: np.ndarray | None = None) -> float:
    """Add each entry's log Z - score(gold) to ``loss``, in entry order.

    ``features`` are compiled index arrays and ``golds`` the gold tag
    arrays of a mini-batch.  When ``counts`` is given (emission rows,
    sentinel row included, then transition rows, flattened), expected
    minus empirical feature counts are added to it in place, entry by
    entry and position by position, each marginal before the gold count
    at the same position.
    """
    Tr = model.transition_weights
    F, H = model.emission_weights.shape
    lengths, E, log_alpha, log_beta, log_z = _crf_pass(model, features)
    gold = _pad(golds, 0)
    gold_steps = np.take_along_axis(E, gold[:, :, None], axis=2)[:, :, 0]
    gold_steps[:, 1:] += Tr[gold[:, :-1], gold[:, 1:]]
    gold_score = np.cumsum(gold_steps, axis=1)[np.arange(len(golds)),
                                               lengths - 1]
    for term in log_z - gold_score:
        loss += term
    if counts is None:
        return loss
    tags = np.arange(H)
    pairs = (F + 1) * H + np.arange(H * H)
    for b, (T, rows, g) in enumerate(zip(lengths, features, golds)):
        unigram = np.exp(log_alpha[b, :T] + log_beta[b, :T] - log_z[b])
        K = rows.shape[1]
        emission_at = np.concatenate([
            (rows[:, :, None] * H + tags).reshape(T, K * H),
            rows * H + g[:, None]], axis=1)
        emission_add = np.concatenate([
            np.broadcast_to(unigram[:, None, :], (T, K, H)).reshape(T, K * H),
            np.full((T, K), -1.0)], axis=1)
        pair = np.exp(log_alpha[b, :T - 1, :, None] + Tr
                      + (E[b, 1:T] + log_beta[b, 1:T])[:, None, :] - log_z[b])
        pair_at = np.concatenate([
            np.broadcast_to(pairs, (T - 1, H * H)),
            ((F + 1) * H + g[:-1] * H + g[1:])[:, None]], axis=1)
        pair_add = np.concatenate([pair.reshape(T - 1, H * H),
                                   np.full((T - 1, 1), -1.0)], axis=1)
        np.add.at(counts, np.concatenate([emission_at.ravel(), pair_at.ravel()]),
                  np.concatenate([emission_add.ravel(), pair_add.ravel()]))
    return loss


def _l2_penalty(model: TaggerModel, l2: float) -> float:
    return 0.5 * l2 * (np.sum(model.emission_weights ** 2)
                       + np.sum(model.transition_weights ** 2))


def _nll_and_gradient(model: TaggerModel, features: Sequence[np.ndarray],
                      golds: Sequence[np.ndarray],
                      l2: float) -> tuple[float, np.ndarray]:
    F, H = model.emission_weights.shape
    counts = np.zeros((F + 1) * H + H * H)
    loss = _batch_nll(model, features, golds, counts=counts)
    loss += _l2_penalty(model, l2)
    gradient = (np.delete(counts, np.s_[F * H:(F + 1) * H])
                + l2 * flatten_weights(model))
    return float(loss), gradient


def nll_and_gradient(model: TaggerModel, batch: TaggedCorpus,
                     l2: float) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the batch plus an L2 penalty.

    loss = sum over entries of (log Z - score(gold)) + (l2/2) * ||w||^2;
    the gradient (expected minus empirical feature counts, plus l2*w)
    comes back flattened emission-rows-then-transition-rows.
    """
    if len(batch) == 0:
        raise InputError("gradient of an empty batch")
    _, features = _compile((melody for melody, _ in batch), model.vectorizer)
    golds = [np.array(gold.tags) for _, gold in batch]
    return _nll_and_gradient(model, features, golds, l2)


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
        # each check is written so that NaN fails it
        if not self.epochs >= 0:
            raise ValueError("epochs must be nonnegative")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and positive")
        if not 0 <= self.l2 < math.inf:
            raise ValueError("l2 must be finite and nonnegative")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be at least 1")
        if not self.seed >= 0:
            raise ValueError("seed must be nonnegative")


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
    (epoch number, epoch loss) after every epoch.  An update that takes
    a weight out of float range raises InputError: the step size or the
    L2 penalty is too large for the corpus.
    """
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    tagset = corpus.tagset
    H = len(tagset)
    vectorizer, features = _compile((melody for melody, _ in corpus),
                                    exclude=config.exclude_features)
    golds = [np.array(gold.tags) for _, gold in corpus]
    F = len(vectorizer)
    emissions = np.zeros((F, H))
    transitions = np.zeros((H, H))
    meta = TrainingMeta(epochs=0, final_loss=0.0, seed=config.seed)
    model = TaggerModel(tagset, vectorizer, emissions, transitions, meta)
    rng = np.random.default_rng(config.seed)
    n_entries = len(corpus.entries)
    for epoch in range(config.epochs):
        order = rng.permutation(n_entries)
        epoch_loss = _l2_penalty(model, config.l2)
        for start in range(0, n_entries, config.batch_size):
            chosen = order[start:start + config.batch_size]
            batch_l2 = config.l2 * len(chosen) / n_entries
            tokens = sum(len(golds[i]) for i in chosen)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                loss, gradient = _nll_and_gradient(
                    model, [features[i] for i in chosen],
                    [golds[i] for i in chosen], batch_l2)
                epoch_loss += loss - _l2_penalty(model, batch_l2)
                flat = (flatten_weights(model)
                        - config.step_size * gradient / tokens)
            if not np.all(np.isfinite(flat)):
                raise InputError(
                    f"training diverged in epoch {epoch + 1}: the weights left "
                    f"float range (step_size {config.step_size!r}, "
                    f"l2 {config.l2!r})")
            emissions, transitions = unflatten_weights(flat, F, H)
            model = replace(model, emission_weights=emissions,
                            transition_weights=transitions)
        if progress is not None:
            progress(epoch + 1, float(epoch_loss))
    # the final loss in batch-sized chunks keeps peak memory at one batch
    final_loss = 0.0
    for start in range(0, n_entries, config.batch_size):
        final_loss = _batch_nll(model, features[start:start + config.batch_size],
                                golds[start:start + config.batch_size],
                                final_loss)
    final_loss += _l2_penalty(model, config.l2)
    meta = TrainingMeta(epochs=config.epochs, final_loss=float(final_loss),
                        seed=config.seed)
    return replace(model, training_meta=meta)
