"""Linear-chain CRF tagger: features, inference, and training.

The model scores a tag path y for a melody as::

    score(y) = sum_t emission(t, y_t) + sum_{t>=1} transition(y_{t-1}, y_t)

where emission(t, k) adds the weights of the binary features active at
position t.  There are no start or end transition weights.  All
sequence sums run in log space via log-sum-exp, so long melodies do
not overflow.  Weights so large that the rounding of alpha + beta -
log Z leaves float range make :func:`infer` raise :class:`InputError`
rather than return non-finite posteriors, naming the melody, and so
does a training run whose update takes the weights, or whose loss
goes, out of float range.

Inference offers two views: :func:`posterior_marginals` returns the
H x T matrix of per-position posteriors P(y_t = k | O) (the prediction
matrix handed to the fusion step), and :func:`viterbi_decode` returns
the maximum-scoring path, breaking ties toward the lexicographically
smallest index sequence (the base prediction sequence fed to rules).
Both are :func:`infer` on a batch of one; ``infer`` gives both views
of a list of melodies from one compile and one emission build.

Training and inference share one compiled, batched path.  A batch of
melodies compiles into a context table and each melody's context ids.
A context is a note (numbered by value) with the interval sign, or
BOS/EOS, into and out of it; table row c holds the int32 indices of
its features in sorted name order, extracted once.  Unseen features
and the padding of short rows point at a sentinel index F (the feature
count), whose weight row is zero.  Emissions are summed once per
context, K gathers and adds with no branch, then gathered over the
B x T grid of context ids, padded longest melody first.  The
recursions run over the B x T x H batch, at each step only over the
prefix of rows still inside their melody; one backward pass
(:func:`_backward`) gives both log beta and the Viterbi suffix maxima.
A loss without a gradient (``train``'s final loss) runs the alpha
recursion alone, in batches of at most ``_BATCH_CELLS`` padded cells,
as ``combine.tag_corpus`` does.  ``train`` learns its vectorizer in the
pass that compiles the corpus.  Gradients are scattered with
``np.add.at`` in the order of the per-position loop it replaced, and
numpy reduces every batch row as it reduced the single melody, so
models, marginals and paths are bit-identical to the per-melody
loops'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ShapeMismatch
from .score import (Melody, StateSequence, TaggedCorpus, TagMatrix, TagSet,
                    number_notes)

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
    midi = note.midi
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
        features.add(f"prev_interval_sign={_sign(midi - melody[t - 1].midi)}")
    if t == T - 1:
        features.add("next_interval_sign=EOS")
        features.add("pos=EOS")
    else:
        features.add(f"next_interval_sign={_sign(melody[t + 1].midi - midi)}")
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


class PredictionMatrix(TagMatrix):
    """Posterior marginals p2: entries in [0, 1], columns summing to 1."""

    def _check(self, values: np.ndarray) -> None:
        sums = values.sum(axis=0)
        if not (np.abs(sums - 1.0) <= 1e-9).all():  # NaN and inf fail too
            raise ValueError(f"columns must sum to 1 within 1e-9: {sums}")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("entries must lie in [0, 1]")


def _compile(melodies: Iterable[Melody],
             vectorizer: FeatureVectorizer | None = None,
             exclude: frozenset[str] = frozenset(), numbering=None
             ) -> tuple[FeatureVectorizer, np.ndarray, list[np.ndarray]]:
    """The vectorizer, the context table and each melody's context ids.

    ``numbering`` is :func:`number_notes` of the melodies when the caller
    has it.  One ``np.unique`` over the positions' context keys finds
    the contexts, numbered as first met.  The table's last row, all
    sentinel, pads a batch grid.  Without a ``vectorizer`` one is learned
    in the same pass: every name not in ``exclude``, indexed as first met.
    """
    melodies = list(melodies)
    notes, note_ids = numbering or number_notes(melodies)
    ids = np.concatenate([np.empty(0, int), *note_ids])
    b = list(accumulate(map(len, melodies), initial=0))
    bounds = np.array(b)  # each melody's first position, then the end
    # the interval sign into each position and out of the last (0, 1, 2:
    # -, 0, +), 3 where a melody starts or ends: BOS, EOS or both
    edge = np.full(len(ids) + 1, 3)
    edge[1:-1] = np.sign(np.diff(
        np.array([note.midi for note in notes], dtype=int)[ids])) + 1
    edge[bounds[1:-1]] = 3
    keys = (ids * 16 + edge[:-1] * 4 + edge[1:]).astype(
        np.min_scalar_type(16 * len(notes)))  # small keys sort by radix
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the contexts as first met
    at = first[order]  # and the position where each is first met
    melody_at = np.searchsorted(bounds, at, side="right") - 1
    names = [sorted(extract_features(melodies[m], t)) for m, t
             in zip(melody_at.tolist(), (at - bounds[melody_at]).tolist())]
    if vectorizer is None:
        vectorizer = FeatureVectorizer(dict.fromkeys(
            name for row in names for name in row if name not in exclude))
    index, F = vectorizer._indices.get, len(vectorizer)
    rows = [[index(name, F) for name in row] for row in names]
    # the rows and the padding row [], padded in one transpose
    table = np.array(list(zip_longest(*rows, [], fillvalue=F)),
                     dtype=np.int32).reshape(-1, len(rows) + 1).T
    context = np.argsort(order)[inverse]
    return vectorizer, table, [context[i:j] for i, j in zip(b, b[1:])]


def _pad(arrays: Sequence[np.ndarray], fill: int,
         rows: Sequence[int]) -> np.ndarray:
    """1-d arrays as rows ``rows`` of a 2-d array, padded with ``fill``."""
    out = np.full((len(arrays), max(map(len, arrays))), fill,
                  dtype=arrays[0].dtype)
    for b, a in zip(rows, arrays):
        out[b, :len(a)] = a
    return out


def _emissions(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """C x H emission scores of a C x K context table, one row per context.

    The weight rows are added in K order, the order of a per-position
    ``weights[idx].sum(axis=0)``; the sentinel index reads a zero row.
    """
    padded = np.vstack([weights, np.zeros((1, weights.shape[1]))])
    E = padded[table[:, 0]]
    for k in range(1, table.shape[1]):
        E += padded[table[:, k]]
    return E


def emission_matrix(model: TaggerModel, melody: Melody) -> np.ndarray:
    """T x H matrix of emission scores; unseen features contribute zero."""
    _, table, (contexts,) = _compile([melody], model.vectorizer)
    return _emissions(model.emission_weights, table)[contexts]


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


def _live(lengths: np.ndarray, T: int) -> list[int]:
    """For each position t < T, how many rows of a batch padded longest
    first are inside their melody: the rows of length above t."""
    if len(lengths) == 1:  # a lone melody: no search
        return [1] * T
    return np.searchsorted(-lengths, -np.arange(T)).tolist()


def _backward(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray,
              reduce) -> np.ndarray:
    """B x T x H backward values of a batch padded longest first, held at
    zero from each entry's last position on.

    Each step reduces transition + next emission + next value over the
    next tag, ``v[t] = reduce(Tr + E[t + 1] + v[t + 1], 2)``, for the
    rows whose melody reaches t + 1: a prefix of the batch.
    :func:`_lse_core` gives log beta, and ``np.maximum.reduce`` the best
    suffix score after each (t, k).  The caller sets ``errstate``.
    """
    B, T, H = E.shape
    live = _live(lengths, T)
    work = np.empty((B, H, H))  # each step's terms, overwritten by reduce
    ahead = np.empty((B, H))
    v = np.zeros((B, T, H))
    for t in range(T - 2, -1, -1):
        n = live[t + 1]
        np.add(E[:n, t + 1], v[:n, t + 1], out=ahead[:n])
        v[:n, t] = reduce(np.add(Tr, ahead[:n, None, :], out=work[:n]), 2)
    return v


def _forward(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray):
    """Log alpha (B x T x H) and log Z (B,) of a batch padded longest first.

    Step t extends the rows whose melody reaches t, a prefix of the
    batch; each entry's log Z is read at its last position.  Values past
    an entry's length are never written.
    """
    B, T, H = E.shape
    live = _live(lengths, T)
    work = np.empty((B, H, H))  # each step's terms, overwritten by the core
    log_alpha = np.empty((B, T, H))
    log_alpha[:, 0] = E[:, 0]
    with np.errstate(all="ignore"):
        for t in range(1, T):
            n = live[t]
            terms = np.add(log_alpha[:n, t - 1, :, None], Tr, out=work[:n])
            np.add(E[:n, t], _lse_core(terms, 1), out=log_alpha[:n, t])
        log_z = _lse_core(log_alpha[np.arange(B), lengths - 1], 1)
    return log_alpha, log_z


def _viterbi(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """B x T best paths of a batch padded longest first; ties go to the
    smallest sequence.

    With the best suffix score of every (t, k) from :func:`_backward`,
    selects greedily from the front, at step t for the rows whose melody
    reaches t.  Greedy forward selection over suffix maxima yields the
    lexicographically smallest argmax path, which forward Viterbi with
    backpointers does not guarantee.  Path values past an entry's length
    are meaningless.
    """
    B, T, H = E.shape
    live = _live(lengths, T)
    best = _backward(E, Tr, lengths, np.maximum.reduce)
    best += E
    step = np.empty((B, H))
    path = np.empty((B, T), dtype=int)
    path[:, 0] = best[:, 0].argmax(axis=1)
    for t in range(1, T):
        n = live[t]
        path[:n, t] = np.add(Tr[path[:n, t - 1]], best[:n, t],
                             out=step[:n]).argmax(axis=1)
    return path


def _crf_pass(model: TaggerModel, table: np.ndarray,
              contexts: Sequence[np.ndarray]):
    """(rows, lengths, E) of compiled melodies: one batch padded longest
    first, as the recursions need, and its emissions.

    Entry i is row ``rows[i]`` and ``lengths`` are the rows' lengths, so
    they do not increase.  A batch of one is taken as it is.  Padding
    reads the table's all-sentinel last row.
    """
    lengths = np.array([len(ids) for ids in contexts])
    rows, grid = [0], contexts[0][None]
    if len(contexts) > 1:
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        rows = np.argsort(order).tolist()
        grid = _pad(contexts, len(table) - 1, rows)
    return rows, lengths, _emissions(model.emission_weights, table)[grid]


# padded cells (melodies x longest length) per batch of tag_corpus and of
# the loss-only pass: it bounds the B x T x H arrays held at once
_BATCH_CELLS = 2**15


def _batches(items: Iterable, length: Callable = len) -> Iterator[list]:
    """``items`` in consecutive lists, each of as many items as fit in
    ``_BATCH_CELLS`` padded cells, and at least one.  Reads one item
    past the list it yields."""
    batch: list = []
    longest = 0
    for item in items:
        size = length(item)
        if batch and (len(batch) + 1) * max(longest, size) > _BATCH_CELLS:
            yield batch
            batch, longest = [], 0
        batch.append(item)
        longest = max(longest, size)
    if batch:
        yield batch


def infer(model: TaggerModel, melodies: Sequence[Melody], start: int = 1,
          numbering=None) -> list[tuple[PredictionMatrix, StateSequence]]:
    """Posterior marginals and Viterbi path of each melody, in one batch.

    The melodies are compiled once and their emissions built once over
    the padded batch; forward-backward and Viterbi then share them.
    Each melody's H x T marginals are renormalized to pin their column
    sums, and its path is the maximum-scoring one, smallest index
    sequence among ties.  Marginals that are not finite, from weights
    too large for float range, raise InputError naming the melody by
    its number, counting from ``start``.  ``numbering``: see _compile.
    """
    if not melodies:
        return []
    _, table, contexts = _compile(melodies, model.vectorizer,
                                  numbering=numbering)
    rows, lengths, E = _crf_pass(model, table, contexts)
    Tr = model.transition_weights
    paths = _viterbi(E, Tr, lengths)  # first: its B x T x H array is freed
    log_alpha, log_z = _forward(E, Tr, lengths)
    with np.errstate(all="ignore"):
        log_beta = _backward(E, Tr, lengths, _lse_core)
    results = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for number, (b, ids) in enumerate(zip(rows, contexts), start):
            T = len(ids)
            marginals = np.exp(log_alpha[b, :T] + log_beta[b, :T] - log_z[b]).T
            # exact within float error already; renormalize to pin column sums
            marginals /= marginals.sum(axis=0, keepdims=True)
            if not np.isfinite(marginals).all():
                raise InputError(f"posteriors of melody {number} are not "
                                 "finite: the model's weights are too large")
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


def _batch_nll(model: TaggerModel, table: np.ndarray,
               contexts: Sequence[np.ndarray], golds: Sequence[np.ndarray],
               loss: float = 0.0, counts: np.ndarray | None = None) -> float:
    """Add each entry's log Z - score(gold) to ``loss``, in entry order.

    ``contexts`` (rows of ``table``) and ``golds`` are the context ids
    and gold tags of a mini-batch.  When ``counts`` is given (emission
    rows, sentinel row included, then transition rows, flattened),
    expected minus empirical feature counts are added to it in place,
    entry by entry and position by position, each marginal before the
    gold count at the same position.  Without ``counts`` only the alpha
    recursion runs: log Z is all the loss reads.
    """
    Tr = model.transition_weights
    F, H = model.emission_weights.shape
    rows, lengths, E = _crf_pass(model, table, contexts)
    log_alpha, log_z = _forward(E, Tr, lengths)
    gold = _pad(golds, 0, rows)
    gold_steps = np.take_along_axis(E, gold[:, :, None], axis=2)[:, :, 0]
    gold_steps[:, 1:] += Tr[gold[:, :-1], gold[:, 1:]]
    gold_score = np.cumsum(gold_steps, axis=1)[np.arange(len(golds)),
                                               lengths - 1]
    terms = log_z - gold_score
    for b in rows:
        loss += terms[b]
    if counts is None:
        return loss
    with np.errstate(all="ignore"):
        log_beta = _backward(E, Tr, lengths, _lse_core)
    tags = np.arange(H)
    pairs = (F + 1) * H + np.arange(H * H)
    for b, ids, g in zip(rows, contexts, golds):
        indices = table[ids]
        T, K = indices.shape
        unigram = np.exp(log_alpha[b, :T] + log_beta[b, :T] - log_z[b])
        emission_at = np.concatenate([
            (indices[:, :, None] * H + tags).reshape(T, K * H),
            indices * H + g[:, None]], axis=1)
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


def _nll_and_gradient(model: TaggerModel, table: np.ndarray,
                      contexts: Sequence[np.ndarray],
                      golds: Sequence[np.ndarray],
                      l2: float) -> tuple[float, np.ndarray]:
    F, H = model.emission_weights.shape
    counts = np.zeros((F + 1) * H + H * H)
    loss = _batch_nll(model, table, contexts, golds, counts=counts)
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
    _, table, contexts = _compile((melody for melody, _ in batch),
                                  model.vectorizer)
    golds = [np.array(gold.tags) for _, gold in batch]
    return _nll_and_gradient(model, table, contexts, golds, l2)


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
    a weight out of float range, or a final loss out of it, raises
    InputError: the step size or the L2 penalty is too large for
    the corpus.  The final loss is computed without a gradient, in
    batches of at most ``_BATCH_CELLS`` padded cells.
    """
    if len(corpus) == 0:
        raise InputError("cannot train on an empty corpus")
    tagset = corpus.tagset
    H = len(tagset)
    vectorizer, table, contexts = _compile((melody for melody, _ in corpus),
                                           exclude=config.exclude_features)
    golds = [np.array(gold.tags) for _, gold in corpus]
    F = len(vectorizer)
    model = TaggerModel(tagset, vectorizer, np.zeros((F, H)), np.zeros((H, H)),
                        TrainingMeta(0, 0.0, config.seed))
    rng = np.random.default_rng(config.seed)
    n_entries = len(corpus.entries)

    def diverged(epoch: int, what: str) -> InputError:
        return InputError(
            f"training diverged in epoch {epoch}: the {what} left float "
            f"range (step_size {config.step_size!r}, l2 {config.l2!r})")

    for epoch in range(config.epochs):
        order = rng.permutation(n_entries)
        with np.errstate(over="ignore", invalid="ignore"):  # as below
            epoch_loss = _l2_penalty(model, config.l2)
        for start in range(0, n_entries, config.batch_size):
            chosen = order[start:start + config.batch_size]
            batch_l2 = config.l2 * len(chosen) / n_entries
            tokens = sum(len(golds[i]) for i in chosen)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                loss, gradient = _nll_and_gradient(
                    model, table, [contexts[i] for i in chosen],
                    [golds[i] for i in chosen], batch_l2)
                epoch_loss += loss - _l2_penalty(model, batch_l2)
                flat = (flatten_weights(model)
                        - config.step_size * gradient / tokens)
            if not np.all(np.isfinite(flat)):
                raise diverged(epoch + 1, "weights")
            emissions, transitions = unflatten_weights(flat, F, H)
            model = replace(model, emission_weights=emissions,
                            transition_weights=transitions)
        if progress is not None:
            progress(epoch + 1, float(epoch_loss))
    # the final loss needs no gradient: batches of at most _BATCH_CELLS
    # padded cells, each entry's term added in entry order
    final_loss = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for chosen in _batches(range(n_entries), lambda i: len(golds[i])):
            final_loss = _batch_nll(model, table,
                                    [contexts[i] for i in chosen],
                                    [golds[i] for i in chosen], final_loss)
        final_loss += _l2_penalty(model, config.l2)
    if not np.isfinite(final_loss):
        raise diverged(config.epochs, "loss")
    meta = TrainingMeta(epochs=config.epochs, final_loss=float(final_loss),
                        seed=config.seed)
    return replace(model, training_meta=meta)
