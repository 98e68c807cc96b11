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
its features in the sorted name order of :func:`extract_features`,
spliced from names made once per distinct note and once per pair of
edges.  Unseen features and the padding of short rows point at a
sentinel index F (the feature count), whose weight row is zero.  Emissions are summed once per
context, then gathered over the grid of context ids, padded longest
melody first and stored time-major: a step's live rows are one block.
Each recursion step lays its terms out as H (reduced) x rows x H
(kept), so every reduce is H - 1 vectorised passes over axis 0.  One
loop (:func:`_alpha_beta`) runs forward step s and backward step
T - 1 - s through one log-sum-exp; a loss without a gradient
(``train``'s final loss, in batches of at most ``_BATCH_CELLS`` padded
cells) is that loop with no backward rows.  Viterbi's suffix-max pass
runs first, so its array is freed before alpha and beta exist, and the
marginals of the whole batch are built in log alpha's buffer
(:func:`_infer_grid`, which ``combine.tag_corpus`` reads).  Sums keep
the per-melody loops' order, term by term forward and numpy's pairwise
order backward and over H (:func:`_pairwise_sum`), and gradients are
scattered with ``np.add.at`` in per-position order, so models,
marginals and paths are bit-identical to the per-melody loops'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, ShapeMismatch
from .score import (Melody, StateSequence, TaggedCorpus, TagMatrix, TagSet,
                    number_notes)

# (numerator, denominator, label) of each bucket's inclusive upper bound;
# the last bound, 1/0, is infinity
_DURATION_BUCKETS = (
    (1, 4, "(0,1/4]"),
    (1, 2, "(1/4,1/2]"),
    (1, 1, "(1/2,1]"),
    (2, 1, "(1,2]"),
    (3, 1, "(2,3]"),
    (1, 0, "(3,inf)"),
)


def duration_bucket(duration: Fraction) -> str:
    """Half-open bucket label for a quarter-length duration.

    ``n/d <= a/b`` is tested as ``n * b <= a * d`` on integers (a
    Fraction's denominator is positive), which is exact and skips
    Fraction's comparison machinery.
    """
    n, d = duration.numerator, duration.denominator
    for upper_n, upper_d, label in _DURATION_BUCKETS:
        if n * upper_d <= upper_n * d:  # true at the last bound, 1/0
            return label


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


# the names of a context's edges, columns 0 to 9 of _compile's name table;
# for each pair of edge codes (into, out) at 4 * into + out: the pos and
# prev_interval_sign columns in sorted order, padded with -1, and how
# many pos names there are
_EDGE_COLUMNS = {name: i for i, name in enumerate(
    [f"next_interval_sign={s}" for s in ("-", "0", "+", "EOS")]
    + ["pos=BOS", "pos=EOS"]
    + [f"prev_interval_sign={s}" for s in ("-", "0", "+", "BOS")])}
_MIDDLE = np.array([([4] * (into == 3) + [5] * (out == 3) + [6 + into]
                     + [-1, -1])[:3] for into, out in product(range(4),
                                                             repeat=2)])
_POS = (_MIDDLE >= 0).sum(axis=1) - 1


def _compile(melodies: Iterable[Melody],
             vectorizer: FeatureVectorizer | None = None,
             exclude: frozenset[str] = frozenset(), numbering=None
             ) -> tuple[FeatureVectorizer, np.ndarray, list[np.ndarray]]:
    """The vectorizer, the context table and each melody's context ids.

    ``numbering`` is :func:`number_notes` of the melodies when the caller
    has it.  One ``np.unique`` over the positions' context keys finds
    the contexts, numbered as first met.  A row is spliced from parts in
    the sorted-name layout of :func:`extract_features`: the note's alt
    and durbucket names, the next_interval_sign name, its octave name,
    the pos names and the prev_interval_sign name, then its step name.
    Note names are made once per distinct note and edge names once per
    pair of edges.  The table's last row, all sentinel, pads a batch
    grid.  Without a ``vectorizer`` one is learned in the same pass:
    every name not in ``exclude``, indexed as first met.
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
    keys, first, inverse = np.unique(keys, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)  # the contexts as first met
    note, pair = np.divmod(keys[order].astype(int), 16)
    # each distinct name is a column: the edge names, then the note names
    # as made; -1 pads a row
    column = dict(_EDGE_COLUMNS)
    parts = np.array([[column.setdefault(name, len(column)) for name in (
        f"alt={n.alteration}", f"durbucket={duration_bucket(n.duration_ql)}",
        f"octave={n.octave}", f"step={n.step}")] for n in notes],
        dtype=int).reshape(-1, 4)
    rows = np.full((len(pair) + 1, 8), -1)  # and the padding row
    rows[:-1, [0, 1, 3]] = parts[note, :3]
    rows[:-1, 2] = pair % 4  # next_interval_sign: the edge out
    rows[:-1, 4:7] = _MIDDLE[pair]
    rows[np.arange(len(pair)), 5 + _POS[pair]] = parts[note, 3]
    names = list(column)
    if vectorizer is None:
        seen, at = np.unique(rows, return_index=True)
        vectorizer = FeatureVectorizer(
            names[c] for c in seen[np.argsort(at)].tolist()
            if c >= 0 and names[c] not in exclude)
    index, F = vectorizer._indices.get, len(vectorizer)
    lookup = np.array([index(name, F) for name in names] + [F],
                      dtype=np.int32)  # -1 reads F
    table = lookup[rows[:, :6 + int(_POS[pair].max(initial=0))]]
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


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in numpy's order for a contiguous run: term by term
    below 8 terms, 8 strided partial sums combined pairwise up to 128,
    halves split at a multiple of 8 above: ``np.add.reduce(x, axis=-1)``
    bit for bit (-0.0 sums aside) for x = terms.T made C-contiguous.
    """
    n = len(terms)
    if n < 8:  # term by term, as a vectorised add per term
        total = terms[0].copy()
        for term in terms[1:]:
            total += term
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    part = terms[:8].copy()
    for i in range(8, n - n % 8, 8):
        part += terms[i:i + 8]
    total = ((part[0] + part[1]) + (part[2] + part[3])) + (
        (part[4] + part[5]) + (part[6] + part[7]))
    for term in terms[n - n % 8:]:
        total += term
    return total


def _lse(work: np.ndarray, sequential: int) -> np.ndarray:
    """log(sum(exp(work))) over axis 0, in place in ``work``; the caller
    silences floating-point warnings.

    The maximal terms are taken out of the sum and added back through
    ``log1p``, the same sequence of operations as scipy 1.17's
    ``logsumexp`` for real input, so results match it bit for bit
    without its per-call dispatch cost.  Columns (axis 1) before
    ``sequential`` sum term by term, as numpy sums a strided axis, the
    rest pairwise, as a contiguous one.  scipy's fallback to the direct
    formula is left out: a finite max gives a finite result, and a max
    of +-inf or NaN already gives the direct formula's.
    """
    top = np.maximum.reduce(work, axis=0)
    ties = work == top
    count = np.add.reduce(ties, axis=0, dtype=float)
    np.subtract(work, top, out=work)
    np.putmask(work, ties, -np.inf)
    total = np.add.reduce(np.exp(work, out=work), axis=0)
    if len(work) >= 8:  # below 8 terms both orders are term by term
        total[sequential:] = _pairwise_sum(work[:, sequential:])
    total /= count
    return np.log1p(total) + np.log(count) + top


def _live(lengths: np.ndarray, T: int) -> list[int]:
    """For each position t < T, how many rows of a batch padded longest
    first are inside their melody: the rows of length above t."""
    if len(lengths) == 1:  # a lone melody: no search
        return [1] * T
    return np.searchsorted(-lengths, -np.arange(T)).tolist()


def _alpha_beta(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray,
                backward: bool = True):
    """Log alpha, log beta (B x T x H) and log Z (B,) of a batch padded
    longest first; without ``backward``, log beta has no rows.

    Step s takes alpha to position s for the rows whose melody reaches
    s, and beta back to T - 1 - s for those reaching T - s, through one
    :func:`_lse` of an H x rows x H work array: alpha[s - 1, j] + Tr[j, k]
    at (j, row, k), then Tr[j, k] + (E + beta)[T - s, k] at (k, row, j).
    log Z is read at each entry's last position.  Alpha past an entry's
    length is never written; beta is zero from its last position on.
    """
    B, T, H = E.shape
    live = _live(lengths, T)
    log_alpha = np.empty((T, B, H)).transpose(1, 0, 2)
    log_alpha[:, 0] = E[:, 0]
    log_beta = np.zeros((T, B * backward, H)).transpose(1, 0, 2)
    with np.errstate(all="ignore"):
        for s in range(1, T):
            f = live[s]
            b = live[T - s] if backward else 0
            work = np.empty((H, f + b, H))
            np.add(log_alpha[:f, s - 1].T[:, :, None], Tr[:, None],
                   out=work[:, :f])
            ahead = E[:b, T - s] + log_beta[:b, T - s]
            np.add(Tr.T[:, None], ahead.T[:, :, None], out=work[:, f:])
            lse = _lse(work, f)
            np.add(E[:f, s], lse[:f], out=log_alpha[:f, s])
            log_beta[:b, T - 1 - s] = lse[f:]
        last = log_alpha[np.arange(B), lengths - 1]
        log_z = _lse(np.ascontiguousarray(last.T), 0)
    return log_alpha, log_beta, log_z


def _viterbi(E: np.ndarray, Tr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """B x T best paths of a batch padded longest first; ties go to the
    smallest sequence.

    A backward pass adds to E[t, j] the best suffix score after (t, j),
    the max over axis 0 of Tr[j, k] + best[t + 1, k] at (k, row, j), and
    greedy selection from the front, over the rows still inside their
    melody, yields the lexicographically smallest argmax path, which
    forward Viterbi with backpointers does not guarantee.  Path values
    past an entry's length are meaningless.
    """
    B, T, H = E.shape
    live = _live(lengths, T)
    best = E.copy(order="K")  # time-major, as E
    for t in range(T - 2, -1, -1):
        n = live[t + 1]
        terms = np.add(Tr.T[:, None], best[:n, t + 1].T[:, :, None])
        best[:n, t] += np.maximum.reduce(terms, axis=0)
    path = np.empty((B, T), dtype=int)
    path[:, 0] = best[:, 0].argmax(axis=1)
    for t in range(1, T):
        n = live[t]
        path[:n, t] = (Tr[path[:n, t - 1]] + best[:n, t]).argmax(axis=1)
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
    E = _emissions(model.emission_weights, table)[grid.T]
    return rows, lengths, E.transpose(1, 0, 2)


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


def _infer_grid(model: TaggerModel, melodies: Sequence[Melody],
                start: int = 1, numbering=None):
    """(rows, lengths, paths, p2) of a non-empty batch padded longest
    first, as :func:`_crf_pass` gives rows and lengths.

    ``paths`` are the B x T Viterbi paths and ``p2`` the B x T x H
    marginals, ``exp(log alpha + log beta - log Z)`` built in log
    alpha's buffer and renormalized over H to pin the sums; padding
    cells read 1.  Marginals that are not finite, from weights too
    large for float range, raise InputError naming the first such
    melody by its number, counting from ``start``.
    """
    _, table, contexts = _compile(melodies, model.vectorizer,
                                  numbering=numbering)
    rows, lengths, E = _crf_pass(model, table, contexts)
    Tr = model.transition_weights
    paths = _viterbi(E, Tr, lengths)  # first: its B x T x H array is freed
    log_alpha, log_beta, log_z = _alpha_beta(E, Tr, lengths)
    del E  # freed before the marginals are built
    # in log alpha's time-major buffer, T x B x H, as the recursions store it
    p2 = log_alpha.transpose(1, 0, 2)
    with np.errstate(all="ignore"):  # checked below; padding is garbage
        p2 += log_beta.transpose(1, 0, 2)
        del log_beta
        p2 -= log_z[:, None]
        np.exp(p2, out=p2)
        # numpy's order for a sum over H, without its per-cell reduce
        p2 /= _pairwise_sum(p2.transpose(2, 0, 1))[:, :, None]
    for b, T in enumerate(lengths.tolist()):
        p2[T:, b] = 1.0
    p2 = log_alpha  # B x T x H
    if not np.isfinite(p2.sum()):  # entries are nonnegative or NaN
        finite = np.isfinite(p2).all(axis=(1, 2))[rows]
        raise InputError(f"posteriors of melody {start + finite.argmin()} "
                         "are not finite: the model's weights are too large")
    return rows, lengths, paths, p2


def infer(model: TaggerModel, melodies: Sequence[Melody], start: int = 1,
          numbering=None) -> list[tuple[PredictionMatrix, StateSequence]]:
    """Posterior marginals and Viterbi path of each melody, in one batch.

    The melodies are compiled once and their emissions built once over
    the padded batch; Viterbi runs first, then one loop gives alpha and
    beta, a forward and a backward step per H x rows x H work array, and
    the marginals are built over the whole batch (:func:`_infer_grid`).
    Each melody's H x T marginals are a view of the batch's, with column
    sums pinned, and its path is the maximum-scoring one, smallest index
    sequence among ties.  Marginals that are not finite, from weights
    too large for float range, raise InputError naming the melody by
    its number, counting from ``start``.  ``numbering``: see _compile.
    """
    if not melodies:
        return []
    rows, lengths, paths, p2 = _infer_grid(model, melodies, start, numbering)
    return [(PredictionMatrix(p2[b, :T].T),
             StateSequence(tuple(paths[b, :T].tolist())))
            for b, T in zip(rows, lengths[rows].tolist())]


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
    log_alpha, log_beta, log_z = _alpha_beta(E, Tr, lengths,
                                             counts is not None)
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
