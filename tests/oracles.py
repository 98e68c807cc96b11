"""Brute-force reference implementations used to check the real code.

Everything here is deliberately naive: path enumeration instead of
dynamic programming, central finite differences instead of analytic
gradients.  Only usable for tiny instances (H ** T up to a few
thousand), which is the point.
"""

import itertools
import operator
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

from ornatag.errors import InputError
from ornatag.rules import Firing
from ornatag.score import (
    Melody,
    Note,
    StateSequence,
    TaggedCorpus,
    TagSet,
    parse_note,
)
from ornatag.tagger import (
    FeatureVectorizer,
    TaggerModel,
    TrainingMeta,
    extract_features,
)


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


def reference_vectorizer(melodies, exclude=frozenset()):
    """``FeatureVectorizer.build``: names in order of first sight, per
    position and sorted name."""
    names = []
    for melody in melodies:
        for t in range(len(melody)):
            for name in sorted(extract_features(melody, t)):
                if name not in exclude and name not in names:
                    names.append(name)
    return FeatureVectorizer(names)


def reference_indices(model, melody):
    """Per position, the indices of its known features in sorted name order."""
    indices = []
    for t in range(len(melody)):
        idx = [model.vectorizer.index(name)
               for name in sorted(extract_features(melody, t))]
        indices.append([i for i in idx if i is not None])
    return indices


def reference_emissions(model, indices):
    """T x H emissions, one ``W[idx].sum(axis=0)`` per position."""
    E = np.zeros((len(indices), len(model.tagset)))
    for t, idx in enumerate(indices):
        if idx:
            E[t] = model.emission_weights[idx].sum(axis=0)
    return E


def reference_forward_backward(E, Tr):
    """(log_alpha, log_beta, log_z) of one melody by per-position loops."""
    T, H = E.shape
    log_alpha = np.empty((T, H))
    log_alpha[0] = E[0]
    for t in range(1, T):
        log_alpha[t] = E[t] + logsumexp(
            log_alpha[t - 1][:, None] + Tr, axis=0)
    log_beta = np.zeros((T, H))
    for t in range(T - 2, -1, -1):
        log_beta[t] = logsumexp(
            Tr + (E[t + 1] + log_beta[t + 1])[None, :], axis=1)
    log_z = logsumexp(log_alpha[T - 1], axis=0)
    return log_alpha, log_beta, log_z


def reference_marginals(model, melody):
    """H x T posterior marginals of one melody, columns renormalized."""
    E = reference_emissions(model, reference_indices(model, melody))
    log_alpha, log_beta, log_z = reference_forward_backward(
        E, model.transition_weights)
    marginals = np.exp(log_alpha + log_beta - log_z).T
    marginals /= marginals.sum(axis=0, keepdims=True)
    return marginals


def reference_viterbi(model, melody):
    """Lexicographically smallest best path of one melody.

    The backward suffix-max recursion, then greedy selection from the
    front: among tied best paths it yields the smallest index sequence.
    """
    E = reference_emissions(model, reference_indices(model, melody))
    Tr = model.transition_weights
    T, H = E.shape
    suffix = np.empty((T, H))
    suffix[T - 1] = E[T - 1]
    for t in range(T - 2, -1, -1):
        suffix[t] = E[t] + np.max(Tr + suffix[t + 1][None, :], axis=1)
    path = [int(np.argmax(suffix[0]))]
    for t in range(1, T):
        path.append(int(np.argmax(Tr[path[-1]] + suffix[t])))
    return tuple(path)


def reference_nll_and_gradient(model, batch, l2):
    """The training objective by per-melody, per-position loops.

    The loop form of ``tagger.nll_and_gradient``: it accumulates the
    loss melody by melody and the gradient position by position, adding
    each marginal before the gold count at the same position.  The
    batched code keeps that order, so both agree bit for bit.
    """
    W = model.emission_weights
    Tr = model.transition_weights
    grad_emission = np.zeros_like(W)
    grad_transition = np.zeros_like(Tr)
    loss = 0.0
    for melody, gold in batch:
        T = len(melody)
        indices = reference_indices(model, melody)
        E = reference_emissions(model, indices)
        log_alpha, log_beta, log_z = reference_forward_backward(E, Tr)
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
    loss += 0.5 * l2 * (np.sum(W ** 2) + np.sum(Tr ** 2))
    grad_emission += l2 * W
    grad_transition += l2 * Tr
    gradient = np.concatenate([grad_emission.ravel(), grad_transition.ravel()])
    return float(loss), gradient


def reference_train(corpus, config, progress=None):
    """``tagger.train`` as a loop over ``reference_nll_and_gradient``."""
    H = len(corpus.tagset)
    vectorizer = FeatureVectorizer.build(
        (melody for melody, _ in corpus), exclude=config.exclude_features)
    F = len(vectorizer)
    model = TaggerModel(corpus.tagset, vectorizer, np.zeros((F, H)),
                        np.zeros((H, H)), TrainingMeta(0, 0.0, config.seed))
    rng = np.random.default_rng(config.seed)
    n_entries = len(corpus.entries)

    def penalty(l2):
        return 0.5 * l2 * (np.sum(model.emission_weights ** 2)
                           + np.sum(model.transition_weights ** 2))

    for epoch in range(config.epochs):
        order = rng.permutation(n_entries)
        epoch_loss = penalty(config.l2)
        for start in range(0, n_entries, config.batch_size):
            entries = tuple(corpus.entries[i]
                            for i in order[start:start + config.batch_size])
            batch = TaggedCorpus(corpus.tagset, entries)
            batch_l2 = config.l2 * len(entries) / n_entries
            loss, gradient = reference_nll_and_gradient(model, batch, batch_l2)
            epoch_loss += loss - penalty(batch_l2)
            flat = (np.concatenate([model.emission_weights.ravel(),
                                    model.transition_weights.ravel()])
                    - config.step_size * gradient / batch.token_count)
            model = replace(model,
                            emission_weights=flat[:F * H].reshape(F, H),
                            transition_weights=flat[F * H:].reshape(H, H))
        if progress is not None:
            progress(epoch + 1, float(epoch_loss))
    final_loss, _ = reference_nll_and_gradient(model, corpus, config.l2)
    return replace(model, training_meta=TrainingMeta(
        config.epochs, final_loss, config.seed))


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _reference_value(melody, base, feature, position):
    if feature == "duration":
        return melody[position].duration_ql
    if feature == "midi":
        return melody[position].midi
    if feature == "octave":
        return melody[position].octave
    if feature == "step":
        return melody[position].step
    if feature == "position":
        return position
    if feature == "pred":
        return base[position]
    raise ValueError(f"unknown feature {feature!r}")


def _reference_antecedent(rule, melody, base, t):
    """True iff every clause holds with the anchor bound to ``t``."""
    for clause in rule.clauses:
        position = t + clause.offset
        if not 0 <= position < len(melody):
            return False
        actual = _reference_value(melody, base, clause.feature, position)
        if not _COMPARE[clause.comparator](actual, clause.value):
            return False
    return True


def reference_firings(ruleset, melody, base):
    """``rules.collect_firings`` as one antecedent test per rule and anchor."""
    firings = []
    for rule in ruleset:
        for t in range(len(melody)):
            target = t + rule.consequent_offset
            if (_reference_antecedent(rule, melody, base, t)
                    and 0 <= target < len(melody)):
                firings.append(Firing(
                    rule_line=rule.source_line, anchor=t, target=target,
                    tag=rule.consequent_tag, tag_index=rule.consequent_index,
                    weight=ruleset.effective_weight(rule)))
    return firings


def reference_data_lines(text):
    """(line number, data, is_blank) per line that is blank or holds data,
    by one comment regex split per line."""
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw.strip() == "":
            lines.append((lineno, "", True))
            continue
        data = re.split(r"(?:^|(?<=\s))#", raw, maxsplit=1)[0].strip()
        if data:
            lines.append((lineno, data, False))
    return lines


def reference_parse_corpus(text, tagset):
    """``score.parse_corpus`` as one loop over the data lines, each token
    parsed once per call and each error located at its line."""
    entries = []
    notes = []
    states = []
    interned = {}

    def flush():
        if notes:
            entries.append((Melody(tuple(notes)), StateSequence(tuple(states))))
            notes.clear()
            states.clear()

    for lineno, data, blank in reference_data_lines(text):
        if blank:
            flush()
            continue
        fields = data.split("\t")
        if len(fields) == 1:
            # tolerate space-separated pairs, but exactly two fields
            fields = data.split()
        if len(fields) != 2:
            raise InputError(
                f"expected 'note<TAB>tag', got {data!r}", line=lineno)
        token, tag = fields
        if token not in interned:
            try:
                interned[token] = parse_note(token)
            except InputError as err:
                err.line = lineno
                raise
        if tag not in tagset:
            raise InputError(f"unknown tag {tag!r}", token=tag, line=lineno)
        notes.append(interned[token])
        states.append(tagset.index(tag))
    flush()
    if not entries:
        raise InputError("corpus file contains no entries")
    return TaggedCorpus(tagset, tuple(entries))


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
