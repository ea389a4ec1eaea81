"""Exact desk-scale simulation of random-codebook sequential decoding.

Senders draw i.i.d. codebooks from their priors.  The receiver decodes one
sender at a time: stage i applies a square-root (pretty-good) measurement
over that sender's candidate word states, conditioned on the words decoded
at earlier stages, implemented gently as rho -> sqrt(D) rho sqrt(D) so later
stages still see an almost undisturbed signal.  Everything here is computed
exactly (operator chains, no sampling noise), so Monte Carlo enters only in
the choice of message tuples.

The decoder's elements D and roots sqrt(D) are dense d^n x d^n operators.
The word states `average_error` evaluates run as factors instead: a word
state is a Kronecker product of letter states, so it is F F† with r^n
columns in F (one on a pure-state channel), and the chain is
F -> sqrt(D) F.  The tests hold it to a dense one-tuple-at-a-time loop
(`tests/oracles.average_error_loop`) within 1e-12 on their shapes, n <= 6;
pure letters at n = 7 reach 5e-10, the noise of rank-1 roots.  A stage
whose L candidates span fewer than d^n directions by their letter ranks
(L r^n < d^n, r the largest rank in the stage's letter table) takes each
PGM's inverse root from the Gram matrix of the candidates' factors, without
forming their average (`pgm_decoder`); its elements and roots stay dense.

Message tuples with the same words have the same values, so `average_error`
runs each distinct word tuple once, as the tuple of the first messages with
its words, and adds the per-tuple values in tuple order (`_in_tuple_order`),
bit for bit as a run over every tuple.  One kernel, `_element_and_root`,
makes every element and root; `_plan` builds what each chunk of the sorted
distinct tuples reads and releases it after its last read (README, "Caps
and determinism").
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from . import operators as ops
from .channel import (BlockChannel, CqMacChannel, Prior, _letter_factors, block_states,
                      reduced_channel)
from .config import (DEFAULT_MAX_MESSAGES, TASK_OPERATORS, THREAD_BYTES, CapExceeded,
                     chunks, per_chunk)
from .operators import (ValidationError, as_block_length, as_distribution, as_index,
                        as_nonnegative, as_reals, as_seed, letter_tuple)

X_SPECTRUM_TOL = 1e-8         # allowed spectral overshoot for 0 <= X <= 1 checks
# A stage's eps_bar averages leaks 1 - Tr(rho D), each rounded on a scale of
# ulps of 1 (2.2e-16); below this floor it is rounding and is reported as 0,
# so that its sqrt(8 eps) + eps bound (3e-8 at eps = 1.1e-16) is 0 too.
EPS_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# codebooks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Codebook:
    """One sender's block code: a list of n-letter words (duplicates allowed)."""

    sender: int
    n: int
    words: tuple[tuple[int, ...], ...]
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sender", as_index(self.sender, "sender"))
        if self.sender < 0:
            raise ValidationError(f"sender must be >= 0, got {self.sender}")
        object.__setattr__(self, "n", as_block_length(self.n))
        words = tuple(letter_tuple(w, "word") for w in self.words)
        if not words:
            raise ValidationError("codebook must contain at least one word")
        for w in words:
            if len(w) != self.n:
                raise ValidationError(f"word {w} has length {len(w)}, expected {self.n}")
            if any(x < 0 for x in w):
                raise ValidationError(f"word {w} has negative letters")
        object.__setattr__(self, "words", words)

    @property
    def size(self) -> int:
        return len(self.words)


def sample_codebook(prior_vec, n: int, size: int, seed: int,
                    sender: int = 0) -> Codebook:
    """Draw `size` words of `n` i.i.d. letters from the sender's prior (`Prior.vector`).

    Deterministic for a fixed seed; duplicate words are kept, as in the
    random coding ensemble.
    """
    p = Prior.vector(prior_vec, sender)
    n, size, seed = as_index(n, "n"), as_index(size, "size"), as_seed(seed, "seed")
    if size < 1 or n < 1:
        raise ValidationError("codebook size and block length must be >= 1")
    if size > DEFAULT_MAX_MESSAGES:
        raise CapExceeded(f"codebook of {size} words, cap is {DEFAULT_MAX_MESSAGES}")
    rng = np.random.default_rng(seed)
    letters = rng.choice(p.size, size=(size, n), p=p)
    return Codebook(sender, n, letters.tolist(), seed=seed)


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Fixed splitting rule: one 64-bit master seed to `count` child seeds."""
    seed = np.random.SeedSequence(as_seed(master_seed, "master_seed"))
    state = seed.generate_state(count, dtype=np.uint64)
    return [int(x) for x in state]


def codebooks_from_seed(ch: CqMacChannel, prior: Prior, n: int,
                        sizes: Sequence[int], master_seed: int) -> list[Codebook]:
    """One codebook per sender, seeded by the first s seeds split off the master."""
    ch.check_prior(prior)
    if len(sizes) != ch.s:
        raise ValidationError(f"expected {ch.s} codebook sizes, got {len(sizes)}")
    seeds = derive_seeds(master_seed, ch.s + 1)[: ch.s]
    return [sample_codebook(prior.per_sender[i], n, as_index(sizes[i], "sizes"), seeds[i],
                            sender=i) for i in range(ch.s)]


def sizes_from_rates(rates: Sequence[float], n: int, delta: float = 0.0) -> list[int]:
    """Codebook sizes ceil(2^{n (R_i - delta)}), floored at one word, capped like
    `sample_codebook`; a size beyond the cap raises before it is computed.
    Rates must be finite and nonnegative, delta finite, and n at least 1."""
    n = as_block_length(n)
    rates = as_nonnegative(rates, "rates").ravel().tolist()
    delta = float(as_reals(delta, "delta"))
    bits = [n * (r - delta) for r in rates]
    if any(b > np.log2(DEFAULT_MAX_MESSAGES) for b in bits):
        raise CapExceeded(f"rates {rates} at n={n} need codebooks of 2^{max(bits):.6g} "
                          f"words, cap is {DEFAULT_MAX_MESSAGES}")
    return [max(1, int(np.ceil(2.0 ** b))) for b in bits]


# ---------------------------------------------------------------------------
# POVMs and gentle instruments
# ---------------------------------------------------------------------------

class Povm:
    """Labeled decoding observable: PSD elements summing to the identity.

    Built from (label, element) pairs, which are checked.  It is also the
    decoder's one store: a pretty-good measurement (`pgm_decoder`) gives it
    a rule (`_form`) for its elements instead, FAIL's included, and each
    element and root is made on its first read (`_elements`, `_roots`) and kept.
    """

    def __init__(self, dim: int, elements: Sequence[tuple[Hashable, np.ndarray]]):
        elements = tuple(elements)
        mats = [m for _, m in elements]
        ops.check_povm(mats, dim)
        self._setup(dim, [lab for lab, _ in elements], dict(enumerate(mats)), None)

    def _setup(self, dim, labels, formed, form):
        """`formed` holds the elements given, by index; `form` forms the others."""
        self.dim = dim
        self._labels = labels
        self._formed = formed
        self._form = form
        self._root_cache: dict[int, np.ndarray] = {}
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValidationError("POVM outcome labels must be unique")
        self._index = index

    @property
    def elements(self) -> tuple[tuple[Hashable, np.ndarray], ...]:
        return tuple(zip(self._labels, _elements(self, range(len(self._labels)))))

    def _require(self, label: Hashable) -> int:
        """Index of the outcome in `elements`."""
        try:
            i = self._index.get(label)
        except TypeError:   # an unhashable label names no outcome
            i = None
        if i is None:
            raise ValidationError(f"POVM has no outcome {label!r}")
        return i

    def element(self, label: Hashable) -> np.ndarray:
        return _elements(self, [self._require(label)])[0]


@dataclass(frozen=True)
class TenderInstrument:
    """A POVM implemented as the branch map rho -> sqrt(D_b) rho sqrt(D_b).

    The roots are the POVM's (`_roots`): each is computed on its first
    lookup and kept, so roots square back by construction, and every
    wrapper of one POVM shares them.
    """

    povm: Povm

    @classmethod
    def from_povm(cls, povm: Povm) -> "TenderInstrument":
        return cls(povm)


def _stack(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack of equally shaped operators.  When every entry is one operator
    (a chunk of one at large dimension, or tuples sharing an outcome) it is
    viewed as a stack of one, which broadcasts, instead of copied."""
    first = mats[0]
    return first[None] if all(m is first for m in mats) else np.stack(mats)


def _roots(povms: Sequence[Povm], positions: Sequence[int]) -> list[np.ndarray]:
    """Root of outcome `positions[t]` of `povms[t]`, for each t.  Those not
    kept yet are made by one `_element_and_root` call and kept, so each is
    computed once, and equals the root computed alone."""
    items = _missing(zip(povms, positions))
    if items:
        _keep(items, *_element_and_root(items))
    return [povm._root_cache[i] for povm, i in zip(povms, positions)]


def _missing(pairs: Iterable[tuple[Povm, int]]) -> list[tuple]:
    """`_element_and_root` items of the distinct (POVM, outcome) pairs whose
    roots are not kept yet, in order."""
    return [(povm, i, povm._form, povm._formed.get(i))
            for povm, i in dict.fromkeys(pairs) if i not in povm._root_cache]


def _formed(items: Sequence[tuple]) -> list[np.ndarray]:
    """The element of each item (povm, i, its `_form` rule, its element or
    None): missing ones are formed in sorted order, one stacked call per POVM
    and chunk."""
    missing: dict[Povm, tuple[Callable, list[int]]] = {}
    for povm, i, form, element in items:
        if element is None:
            missing.setdefault(povm, (form, []))[1].append(i)
    formed = {}
    for povm, (form, idx) in missing.items():
        idx = np.array(sorted(idx))
        for rows in chunks(len(idx), 16 * povm.dim ** 2):
            formed.update(zip([(povm, i) for i in idx[rows].tolist()], form(idx[rows])))
    return [formed.get((povm, i), element) for povm, i, _, element in items]


def _element_and_root(items: Sequence[tuple]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Elements (`_formed`) and roots of `items`, the roots in one stacked
    op_sqrt (elements are checked, or formed Hermitian): the decoder's one
    kernel.  It reads and keeps nothing in a POVM, so calls can run at once;
    each element and root equals the one computed alone.  Items that all
    share one element array (`_stack`'s stack of one) share its one root."""
    elements = _formed(items)
    roots = ops.op_sqrt(_stack(elements), hermitian=True)
    return elements, [*roots] * (len(elements) // len(roots))


def _keep(items: Sequence[tuple], elements: Sequence[np.ndarray], roots: Sequence = ()) -> None:
    """Keep the elements, and any roots, of `items` (POVM and outcome first)."""
    for (povm, i, *_), element in zip(items, elements):
        povm._formed[i] = element
    for (povm, i, *_), root in zip(items, roots):
        povm._root_cache[i] = root


FAIL = None  # outcome label of the PGM's residual (off-support) element

# eigendirections below this fraction of the leading eigenvalue of the
# average state cannot be inverted stably in double precision; they count
# as off-support and feed the residual outcome
PGM_SUPPORT_RTOL = 1e-6


def _elements(povm: Povm, positions: Iterable[int]) -> list[np.ndarray]:
    """Element of each outcome in `positions` of the POVM.  Those not formed
    yet (a PGM's) are formed together (`_formed`) and kept, so
    each is formed once, and equals the element formed with all others."""
    positions = list(positions)
    items = [(povm, i, povm._form, None) for i in dict.fromkeys(positions)
             if i not in povm._formed]
    _keep(items, _formed(items))
    return [povm._formed[i] for i in positions]


def _average(rebuild: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    """Average by weights `w` of the states `rebuild` builds a chunk at a time, each released
    before the next is built, added in order into one array from 0 + w[0] m_0, as sum() adds."""
    acc = 0 + w[0] * rebuild(np.arange(1))[0]
    for rows in chunks(len(w) - 1, 16 * acc.shape[-1] ** 2):
        for wi, m in zip(w[1:][rows], rebuild(np.arange(1, len(w))[rows])):
            acc += wi * m
        del m   # a view that would keep this chunk alive while the next is built
    return ops.hermitize(acc)


def pgm_decoder(states: Sequence[tuple[Hashable, np.ndarray]], *,
                rebuild: Callable[[np.ndarray], np.ndarray] | None = None,
                _factors: np.ndarray | None = None) -> Povm:
    """Square-root measurement of a family of k equally likely states.

    With S their average, each element is S^{-1/2} (rho_c / k) S^{-1/2} on
    the (numerically resolvable) support of S; if S has null-space
    directions, the identity less its support projector is a residual
    outcome labeled FAIL, so the elements sum to the identity by
    construction (Hausladen et al. 1996).  The states are checked as density
    matrices, and none may be labeled None (FAIL); the result is not.  It
    keeps only S^{-1/2}, and forms each element on its first read from the
    states built again: FAIL's from S (`_average`, which keeps none of them).

    `rebuild(idx)` builds the stacked states of an index array.  Passing it
    says the states are built from checked ones (as the sequential decoder
    builds its candidates): `states` then holds only their labels, and
    nothing is checked.  With it the sequential decoder passes `_factors`,
    the (k, D, m) stack of factors F_c of its states (rho_c = F_c F_c†), for
    a stage where k m < D: S^{-1/2}, and FAIL's projector on read, then come
    from the Gram matrix of A = [F_c / sqrt(k)] (`ops._gram_power`), and
    the PGM keeps A in place of building S again.
    """
    if not len(states):
        raise ValidationError("pretty-good measurement needs at least one state")
    labels = list(states) if rebuild is not None else [lab for lab, _ in states]
    if any(lab is FAIL for lab in labels):
        raise ValidationError("PGM state label None is reserved for the FAIL outcome")
    if rebuild is None:
        mats = [ops.check_density(m, name=f"PGM state {lab!r}") for lab, m in states]
        if any(m.shape[0] != mats[0].shape[0] for m in mats):
            raise ValidationError("PGM states must share one dimension")
        rebuild = np.stack(mats).__getitem__
    k, w = len(labels), np.full(len(labels), 1.0 / len(labels))
    # A's columns: candidate c's factor columns times sqrt(w_c), c by c
    a = (None if _factors is None else
         (_factors * np.sqrt(w[0])).transpose(1, 0, 2).reshape(_factors.shape[1], -1))
    inv_root, off = (ops.pinv_sqrt(_average(rebuild, w), PGM_SUPPORT_RTOL, hermitian=True)
                     if a is None else ops._gram_power(a, -1.5, PGM_SUPPORT_RTOL))

    def form(idx: np.ndarray) -> list[np.ndarray]:
        """Elements of the sorted outcomes `idx`, where FAIL's, k, sorts last."""
        fail = bool(idx[-1] == k)   # a slice: a mask maps 128 KB more numpy code (peak RSS)
        cand = idx[:len(idx) - fail]
        out = [*ops.hermitize(inv_root @ (rebuild(cand) * w[cand, None, None]) @ inv_root)]
        if fail:
            proj = (ops.support_projector(_average(rebuild, w), PGM_SUPPORT_RTOL, hermitian=True)
                    if a is None else ops._gram_power(a, -1.0, PGM_SUPPORT_RTOL)[0])
            out.append(ops.hermitize(np.eye(len(inv_root)) - proj))
        return out

    povm = Povm.__new__(Povm)
    povm._setup(len(inv_root), labels + [FAIL] * (off > 0), {}, form)
    return povm


def disturbance_check(rho: np.ndarray, x: np.ndarray) -> tuple[float, float, float]:
    """Both sides of the gentle-measurement bound for a single operator.

    For 0 <= X <= 1 with success probability Tr(rho X) = 1 - eps, the state
    after the sqrt(X).sqrt(X) branch is close to the original:
    ||rho - sqrt(X) rho sqrt(X)||_1 <= sqrt(8 eps).  eps is measured, floored
    at 0, and must be below 1.  Returns (eps, lhs, bound).
    """
    rho = ops.check_density(rho)
    w, v = ops.eig_hermitian(x)
    if w[0] < -X_SPECTRUM_TOL or w[-1] > 1.0 + X_SPECTRUM_TOL:
        raise ValidationError(f"operator spectrum [{w[0]:.3e}, {w[-1]:.3e}] is not within [0, 1]")
    w = np.clip(w, 0.0, 1.0)
    eps = max(0.0, 1.0 - float(np.trace(rho @ ((v * w) @ v.conj().T)).real))
    if eps >= 1.0:
        raise ValidationError(f"epsilon must be < 1, got {eps:.6g}")
    root = ops.hermitize((v * np.sqrt(w)) @ v.conj().T)
    lhs = ops.trace_norm(rho - root @ rho @ root, hermitian=True)
    return eps, lhs, float(np.sqrt(8.0 * eps))


@dataclass(frozen=True)
class TenderCheck:
    """Per-state and averaged disturbance of implementing a POVM gently."""

    per_state: tuple[tuple[Hashable, float, float, float], ...]  # (label, eps, dist, bound)
    eps_bar: float
    avg_disturbance: float
    avg_bound: float


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a† b) of each pair of matrices of two stacks."""
    return (a.conj() * b).real.sum(axis=(-2, -1))


def _branch_disturbance(diff: np.ndarray,
                        leak: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eps, dist) of each state of a stack under its right outcome, given a
    Hermitian stack `diff` with the trace norm of rho - sqrt(D_b) rho sqrt(D_b)
    and the leaks 1 - Tr(rho D_b).

    eps is the leak floored at 0; dist is the exact deviation of the branch
    map output (with its classical outcome register) from the ideal b (x) rho:
    ||rho - sqrt(D_b) rho sqrt(D_b)||_1 plus the leaked probability
    sum_{b' != b} Tr(rho D_b'), which is 1 - Tr(rho D_b) because `Povm`
    enforces completeness (to 1e-8 per entry).
    """
    dist = ops.trace_norm(diff, hermitian=True) + leak
    return np.where(leak > 0.0, leak, 0.0), dist


def tender_bound_check(states: Sequence[tuple[Hashable, np.ndarray]],
                       inst: TenderInstrument,
                       weights: Sequence[float] | None = None) -> TenderCheck:
    """Disturbance of each labeled state under the instrument vs its bound.

    State a counts as decoded correctly on the outcome labeled a.  Its
    disturbance (see _branch_disturbance) obeys sqrt(8 eps_a) + eps_a with
    eps_a = 1 - Tr(rho_a D_a), and on average sqrt(8 eps) + eps with the
    averaged eps.
    """
    wvec = (np.full(len(states), 1.0 / len(states)) if weights is None
            else as_distribution(weights, "weights"))
    if wvec.size != len(states):
        raise ValidationError(f"weights has {wvec.size} entries, expected {len(states)}")
    labels = [a for a, _ in states]
    rhos = np.stack([ops.check_density(rho, name=f"state {a!r}") for a, rho in states])
    positions = [inst.povm._require(a) for a in labels]
    leak = 1.0 - np.trace(rhos @ np.stack(_elements(inst.povm, positions)),
                          axis1=-2, axis2=-1).real
    roots = np.stack(_roots([inst.povm] * len(labels), positions))
    eps_all, dist_all = (x.tolist() for x in _branch_disturbance(rhos - roots @ rhos @ roots,
                                                                  leak))
    rows = []
    eps_bar = 0.0
    avg_dist = 0.0
    for a, eps, dist, w in zip(labels, eps_all, dist_all, wvec):
        bound = float(np.sqrt(8.0 * eps) + eps)
        rows.append((a, eps, dist, bound))
        eps_bar += w * eps
        avg_dist += w * dist
    avg_bound = float(np.sqrt(8.0 * eps_bar) + eps_bar)
    return TenderCheck(tuple(rows), eps_bar, avg_dist, avg_bound)


# ---------------------------------------------------------------------------
# sequential decoding
# ---------------------------------------------------------------------------

class SequentialDecoder:
    """Stage-by-stage pretty-good measurements for fixed codebooks.

    Stage i distinguishes sender i's codewords on the n-block output,
    conditioned on the words decoded at earlier stages; senders not yet
    decoded are averaged over their priors, so the stage-i decoder does not
    depend on their codebooks.  Instruments are cached per (stage, prefix).

    Random codebooks repeat words.  A candidate's state depends only on its
    word, given the prefix, and its weight is uniform, so messages with one
    word have equal elements and roots: `_first[i][m]` is the first message
    of stage i with message m's word.  `average_error` maps each message
    tuple to these first messages once, so the decoder forms and keeps one
    element and one root per distinct word.
    """

    def __init__(self, ch: CqMacChannel, codebooks: Sequence[Codebook], prior: Prior):
        if len(codebooks) != ch.s:
            raise ValidationError(f"expected {ch.s} codebooks, got {len(codebooks)}")
        if [cb.sender for cb in codebooks] != list(range(ch.s)):
            raise ValidationError("codebooks must be in sender order, got senders "
                                  f"{[cb.sender for cb in codebooks]}")
        ns = {cb.n for cb in codebooks}
        if len(ns) != 1:
            raise ValidationError(f"codebooks disagree on block length: {sorted(ns)}")
        # (L_i, n) each; a letter too large for int64 widens the dtype, and is refused
        self._words = [np.array(cb.words) for cb in codebooks]
        for i, (words, a) in enumerate(zip(self._words, ch.sender_alphabets)):
            if np.any(words >= a):
                raise ValidationError(f"codebook for sender {i} contains letters outside "
                                      "its alphabet")
        self.channel = ch
        self.codebooks = tuple(codebooks)
        self.prior = prior
        self.n = codebooks[0].n
        self.block = BlockChannel(ch, self.n)
        self._first = []
        for words in self._words:
            _, first, inverse = np.unique(words, axis=0, return_index=True, return_inverse=True)
            self._first.append(first[inverse.ravel()])
        # letter table for stage i: senders 0..i explicit, senders > i averaged
        self._stage_tables = [reduced_channel(ch, prior, range(i + 1)) for i in range(ch.s)]
        # its letter factors where its L candidates, of rank at most r^n each,
        # span fewer than d^n directions (L r^n < d^n): that stage's PGMs take
        # their inverse root in Gram form (`pgm_decoder`), the others densely
        dim, self._stage_factors = self.block.output_dim, []
        for table, words in zip(self._stage_tables, self._words):
            f = _letter_factors(table) if len(words) < dim else None
            low = f is not None and len(words) * f.shape[-1] ** self.n < dim
            self._stage_factors.append(f if low else None)
        self._cache: dict[tuple[int, tuple[tuple[int, ...], ...]], TenderInstrument] = {}

    def _stage_letters(self, stage: int, prefix_words) -> tuple[np.ndarray, np.ndarray]:
        """The stage table and the (L, n, stage + 1) letters of the candidate
        states: (prefix_words[0][k], ..., word_m[k]) at position k of message m."""
        words = self._words[stage]
        prefix = np.array(prefix_words, dtype=int).reshape(stage, self.n).T   # (n, stage)
        letters = np.concatenate(
            [np.broadcast_to(prefix, (len(words),) + prefix.shape), words[:, :, None]], axis=-1)
        return self._stage_tables[stage], letters

    def stage_states(self, stage: int,
                     prefix_words: Sequence[Sequence[int]]) -> list[tuple[int, np.ndarray]]:
        """Candidate state of each message of `stage`, given decoded prefix
        words read as `stage_instrument` reads them (`_key`), built as chunked
        stacks of block_states (`_stage_letters`)."""
        table, letters = self._stage_letters(*self._key(stage, prefix_words))
        return list(enumerate(m for rows in chunks(len(letters), 16 * self.block.output_dim ** 2)
                              for m in block_states(table, letters[rows])))

    def stage_instrument(self, stage: int,
                         prefix_words: Sequence[Sequence[int]]) -> TenderInstrument:
        key = self._key(stage, prefix_words)
        inst = self._cache.get(key)
        if inst is None:
            inst = self._cache[key] = self._instrument(key)
        return inst

    def _key(self, stage: int, prefix_words: Sequence[Sequence[int]]) -> tuple:
        """Cache key of the stage's instrument given decoded prefix words,
        word j an n-letter word of sender j's alphabet."""
        stage = as_index(stage, "stage")
        if stage < 0 or stage >= self.channel.s:
            raise ValidationError(f"stage {stage} out of range")
        if len(prefix_words) != stage:
            raise ValidationError(f"stage {stage} needs {stage} prefix words")
        words = tuple(letter_tuple(w, "prefix word") for w in prefix_words)
        for j, (w, a) in enumerate(zip(words, self.channel.sender_alphabets)):
            if len(w) != self.n or not all(0 <= x < a for x in w):
                raise ValidationError(f"prefix word {w} is not a {self.n}-letter word "
                                      f"of sender {j}'s alphabet")
        return (stage, words)

    def _instrument(self, key: tuple) -> TenderInstrument:
        """The instrument of a cache key, built without reading or writing
        the cache, so that builds can run at once."""
        table, letters = self._stage_letters(*key)
        factors = self._stage_factors[key[0]]
        povm = pgm_decoder(range(len(letters)),
                           rebuild=lambda idx: block_states(table, letters[idx]),
                           _factors=None if factors is None else block_states(factors, letters))
        return TenderInstrument.from_povm(povm)


def _prefix_words(decoder: SequentialDecoder, prefix: Sequence[int]) -> list[tuple[int, ...]]:
    """The words of decoded prefix messages, one per earlier stage."""
    return [decoder.codebooks[j].words[m] for j, m in enumerate(prefix)]


def _reads(decoder: SequentialDecoder, msg: np.ndarray) -> list[tuple[list[Povm], list[int]]]:
    """Per stage, the POVM each message tuple (row of `msg`) reads and the
    position of its outcome; each distinct prefix's instrument is looked up
    once.  A PGM's positions are its labels, so a tuple reads the outcome of
    its own message: `average_error` passes only tuples of first messages
    (`SequentialDecoder._first`), so each element and root is formed once
    per word."""
    out = []
    for i in range(decoder.channel.s):
        prefixes = list(map(tuple, msg[:, :i].tolist()))
        found = {prefix: decoder.stage_instrument(i, _prefix_words(decoder, prefix)).povm
                 for prefix in dict.fromkeys(prefixes)}
        out.append(([found[prefix] for prefix in prefixes], msg[:, i].tolist()))
    return out


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform (macOS)
        return os.cpu_count() or 1


def _blas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Get and set calls of the thread count of numpy's bundled OpenBLAS, by
    ctypes as in threadpoolctl; None where numpy links another BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):   # no such module, library or symbol
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


_pin_lock = threading.Lock()
_pin_calls = 0       # `average_error` calls running on one BLAS thread
_pin_caller = None   # the BLAS count the first of them found


def _pin(step: int) -> None:
    """Enter (step 1) or leave (step -1) one-thread BLAS: the first of
    overlapping calls saves the caller's count, the last sets it back."""
    global _pin_calls, _pin_caller
    get, set_threads = _blas() or (lambda: None, lambda threads: None)
    with _pin_lock:
        if _pin_calls == 0:
            _pin_caller = get()
        _pin_calls += step
        set_threads(1 if _pin_calls else _pin_caller)


def _workers(dim: int) -> int:
    """Threads that build the decoder of block dimension `dim` at once.

    One, unless one operator fills a chunk and `_blas` finds OpenBLAS, which
    `average_error` runs on one thread; then one per CPU, and no more than
    keep the operators of all threads beyond the first within THREAD_BYTES.
    """
    item = 16 * dim * dim
    if per_chunk(item) > 1 or _blas() is None:
        return 1
    return min(_cpus(), 1 + THREAD_BYTES // (TASK_OPERATORS * item))


@contextlib.contextmanager
def _tasks(workers: int) -> Iterator[Callable]:
    """`submit(fn, *args)`, which returns a call giving fn(*args): with one worker
    fn runs on that call; with more, on a pool of that many threads, whose tasks
    not yet started are cancelled, and its threads joined, when an error leaves."""
    if workers == 1:
        yield functools.partial
        return
    from concurrent.futures import ThreadPoolExecutor   # loaded on this path only
    with ThreadPoolExecutor(workers) as pool:
        try:
            yield lambda fn, *args: pool.submit(fn, *args).result
        except BaseException:   # a failed task, or an interrupt while waiting
            pool.shutdown(cancel_futures=True)
            raise


def _plan(decoder: SequentialDecoder, msgs: np.ndarray, rows: Sequence[slice],
          run: Callable[[slice, list[tuple[list[Povm], list[int]]]], None]) -> None:
    """`run(rows[c], reads)` on each chunk of sorted distinct message tuples
    `msgs[rows[c]]`, in order, once what it reads (`_reads`) is built.

    While chunk c runs, the `_workers` threads (`_tasks`) build the missing
    elements and roots of the next `ahead` chunks, one kernel call per chunk
    and stage, and the instruments of `ahead` more.  The calling thread keeps
    the results in order (the first failed task in order raises), and before
    chunk c runs releases what chunk c - 1 read and chunk c does not: sorted,
    the tuples reading an instrument, or one of its outcomes, are consecutive.
    """
    workers = _workers(decoder.block.output_dim)
    ahead, end = 2 * (workers - 1), len(rows)
    builds, keys, reads, pairs, items = {}, {}, {}, {-1: set()}, {}   # by key; by chunk
    with _tasks(workers) as submit:
        for c, r in enumerate(rows):
            for j in range(c + 2 * ahead if c else 0, min(c + 2 * ahead + 1, end)):
                keys[j] = [decoder._key(i, _prefix_words(decoder, prefix))
                           for i in range(decoder.channel.s)
                           for prefix in dict.fromkeys(map(tuple, msgs[rows[j], :i].tolist()))]
                builds.update((k, submit(decoder._instrument, k)) for k in keys[j]
                              if k not in builds and k not in decoder._cache)
            new = range(c + ahead if c else 0, min(c + ahead + 1, end))
            for j in new:
                decoder._cache.update((k, builds.pop(k)()) for k in keys.pop(j) if k in builds)
                reads[j] = _reads(decoder, msgs[rows[j]])
                pairs[j] = {pair for stage in reads[j] for pair in zip(*stage)}
            gone = pairs.pop(c - 1) - pairs[c]
            for povm, i in gone:
                del povm._formed[i], povm._root_cache[i]
            gone = {povm for povm, _ in gone} - {povm for povm, _ in pairs[c]}
            for key in [k for k, inst in decoder._cache.items() if inst.povm in gone]:
                del decoder._cache[key]
            for j in new:   # what chunk j - 1 reads is kept or on the executor
                batches = [_missing(p for p in zip(*stage) if p not in pairs.get(j - 1, ()))
                           for stage in reads[j]]
                items[j] = [(b, submit(_element_and_root, b)) for b in batches if b]
            for batch, task in items.pop(c):
                _keep(batch, *task())
            run(r, reads.pop(c))


# ---------------------------------------------------------------------------
# average error and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    """Exact accounting of one simulated code, reproducible from its seeds."""

    n: int
    sizes: tuple[int, ...]
    rates: tuple[float, ...]
    mode: str
    trials: int | None
    master_seed: int | None
    codebook_seeds: tuple[int | None, ...]
    trial_seed: int | None
    messages_evaluated: int
    avg_error: float
    stage_success: tuple[float, ...]
    stage_errors: tuple[float, ...]
    stage_eps_bar: tuple[float, ...]
    stage_disturbance: tuple[float, ...]
    stage_disturbance_bound: tuple[float, ...]
    wall_clock_s: float | None = None

    def to_json_dict(self) -> dict:
        """Every field but the wall clock, tuples as lists: reports with equal
        seeds must serialize byte-identically."""
        values = ((f.name, getattr(self, f.name)) for f in dataclasses.fields(self)
                  if f.name != "wall_clock_s")
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values}

    def csv_rows(self) -> tuple[list[str], list]:
        header = (["n"] + [f"L{i + 1}" for i in range(len(self.sizes))] + ["avg_error"]
                  + [f"stage_error_{i + 1}" for i in range(len(self.stage_errors))])
        row = [self.n, *self.sizes, self.avg_error, *self.stage_errors]
        return header, row


def _in_tuple_order(values: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.floating]:
    """Per stage, the sums over message tuples of the (eps, dist, success)
    `values[:, i, order[t]]` of tuple t, and the sum of 1 - success at the
    last stage (every sender decoded).  Each is added left to right in tuple
    order, as one tuple at a time would add it: accumulate adds sequentially,
    where np.sum adds pairwise."""
    per_tuple = values[:, :, order]
    return np.cumsum(per_tuple, axis=-1)[..., -1], np.cumsum(1.0 - per_tuple[2, -1])[-1]


def average_error(ch: CqMacChannel, codebooks: Sequence[Codebook], prior: Prior,
                  mode: str = "exhaustive", trials: int | None = None,
                  seed: int | None = None, master_seed: int | None = None) -> SimReport:
    """Mean decoding error over message tuples, with per-stage gentleness stats.

    "exhaustive" enumerates every message tuple (product of codebook sizes
    capped at 4096) and takes no `trials` or `seed`; "monte_carlo" samples
    `trials` tuples (1 to 4096) uniformly using `seed`.  For each stage the report
    carries the average stage error on undisturbed inputs and the exact
    average disturbance the gentle measurement inflicts, with its
    sqrt(8 eps) + eps bound; an eps below EPS_FLOOR is reported as 0.
    BLAS runs on one thread for the call (where `_blas` finds OpenBLAS), and
    at the caller's count again after it; overlapping calls from several
    threads share one pin (`_pin`), set back when the last returns.
    """
    t0 = time.perf_counter()
    _pin(1)
    try:
        decoder = SequentialDecoder(ch, codebooks, prior)
        sizes = tuple(cb.size for cb in codebooks)
        if mode == "exhaustive":
            if trials is not None:
                raise ValidationError("trials= needs monte_carlo mode")
            if seed is not None:
                raise ValidationError("seed= needs monte_carlo mode")
            count = int(np.prod(sizes))
            if count > DEFAULT_MAX_MESSAGES:
                raise CapExceeded(f"exhaustive decoding needs {count} message tuples, "
                                  f"cap is {DEFAULT_MAX_MESSAGES}")
            msgs = np.indices(sizes).reshape(len(sizes), -1).T   # lexicographic order
            trial_seed = None
        elif mode == "monte_carlo":
            if trials is None or seed is None:
                raise ValidationError("monte_carlo mode needs trials= and seed=")
            trials, seed = as_index(trials, "trials"), as_seed(seed, "seed")
            if trials < 1:
                raise ValidationError(f"trials must be >= 1, got {trials}")
            if trials > DEFAULT_MAX_MESSAGES:
                raise CapExceeded(f"Monte Carlo decoding needs {trials} message tuples, "
                                  f"cap is {DEFAULT_MAX_MESSAGES}")
            rng = np.random.default_rng(seed)
            msgs = np.array([[int(rng.integers(L)) for L in sizes] for _ in range(trials)])
            trial_seed = seed
        else:
            raise ValidationError(f"mode must be 'exhaustive' or 'monte_carlo', got {mode!r}")

        s, n = ch.s, decoder.n
        # each tuple becomes the tuple of the first messages with its words
        # (`SequentialDecoder._first`), the only message index below here; each
        # distinct one runs once, sorted, in chunks of stacked operators.
        # Each word state rho = F F† runs as its factor F: the leak is
        # 1 - Re<F, D F>, the branch state is sqrt(D) F, its weight ||sqrt(D) F||^2
        canon = np.stack([decoder._first[i][msgs[:, i]] for i in range(s)], axis=1)
        # return_index makes np.unique run the stable sort the decoder's own call
        # ran, whose code is resident; its default sort raised peak memory 0.1 MB
        distinct, _, inverse = np.unique(canon, axis=0, return_index=True, return_inverse=True)
        values = np.zeros((3, s, len(distinct)))   # eps, dist and success per stage

        def run(chunk: slice, reads: list[tuple[list[Povm], list[int]]]) -> None:
            msg = distinct[chunk]
            words = np.stack([decoder._words[i][msg[:, i]] for i in range(s)], axis=1)
            f0 = decoder.block.state_for_words(words)
            f = f0
            for i, (povms, positions) in enumerate(reads):
                # gentleness accounting on the undisturbed word states
                elements = _stack([p._formed[b] for p, b in zip(povms, positions)])
                leak = 1.0 - _inner(f0, elements @ f0)
                roots = _stack([p._root_cache[b] for p, b in zip(povms, positions)])
                g = roots @ f0
                eps, dist = _branch_disturbance(ops.factor_difference(f0, g), leak)
                f = g if f is f0 else roots @ f
                values[:, i, chunk] = eps, dist, _inner(f, f)

        _plan(decoder, distinct, list(chunks(len(distinct), 16 * decoder.block.output_dim ** 2)),
              run)

        (stage_eps, stage_dist, stage_success), total_error = _in_tuple_order(
            values, inverse.ravel())
        count = len(msgs)
        stage_success /= count
        stage_eps /= count
        stage_eps[stage_eps < EPS_FLOOR] = 0.0
        stage_dist /= count
        total_error /= count
        bounds = tuple(float(np.sqrt(8.0 * e) + e) for e in stage_eps)
        return SimReport(
            n=n,
            sizes=sizes,
            rates=tuple(float(np.log2(L)) / n for L in sizes),
            mode=mode,
            trials=trials,
            master_seed=master_seed,
            codebook_seeds=tuple(cb.seed for cb in codebooks),
            trial_seed=trial_seed,
            messages_evaluated=count,
            avg_error=float(total_error),
            stage_success=tuple(float(x) for x in stage_success),
            stage_errors=tuple(float(1.0 - x) for x in stage_success),
            stage_eps_bar=tuple(float(x) for x in stage_eps),
            stage_disturbance=tuple(float(x) for x in stage_dist),
            stage_disturbance_bound=bounds,
            wall_clock_s=time.perf_counter() - t0,
        )
    finally:
        _pin(-1)


def run_simulation(ch: CqMacChannel, prior: Prior, n: int, sizes: Sequence[int],
                   master_seed: int, mode: str = "exhaustive",
                   trials: int | None = None) -> SimReport:
    """Sample codebooks from a master seed and evaluate the code.

    The master seed splits into one seed per codebook plus one for Monte
    Carlo message sampling, so reports are bit-exact replayable.
    """
    BlockChannel(ch, n)   # capped before n-letter words are drawn
    codebooks = codebooks_from_seed(ch, prior, n, sizes, master_seed)
    trial_seed = derive_seeds(master_seed, ch.s + 1)[ch.s]
    return average_error(ch, codebooks, prior, mode=mode, trials=trials,
                         seed=trial_seed if mode == "monte_carlo" else None,
                         master_seed=int(master_seed))
