"""Exact desk-scale simulation of random-codebook sequential decoding.

Senders draw i.i.d. codebooks from their priors.  The receiver decodes one
sender at a time: stage i applies a square-root (pretty-good) measurement
over that sender's candidate word states, conditioned on the words decoded
at earlier stages, implemented gently as rho -> sqrt(D) rho sqrt(D) so later
stages still see an almost undisturbed signal.  Everything here is computed
exactly (operator chains, no sampling noise), so Monte Carlo enters only in
the choice of message tuples.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field
from typing import Hashable, Iterator, Sequence

import numpy as np

from . import entropy
from . import operators as ops
from .channel import CqMacChannel, Prior, block_channel, block_states, reduced_channel
from .config import DEFAULT_MAX_MESSAGES, CapExceeded
from .operators import ValidationError

X_SPECTRUM_TOL = 1e-8         # allowed spectral overshoot for 0 <= X <= 1 checks


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
        if self.n < 1:
            raise ValidationError(f"block length must be >= 1, got {self.n}")
        words = tuple(tuple(int(x) for x in w) for w in self.words)
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
    """Draw `size` words of `n` i.i.d. letters from the sender's prior.

    Deterministic for a fixed seed; duplicate words are kept, as in the
    random coding ensemble.
    """
    p = np.asarray(prior_vec, dtype=float).ravel()
    if size < 1 or n < 1:
        raise ValidationError("codebook size and block length must be >= 1")
    if size > DEFAULT_MAX_MESSAGES:
        raise CapExceeded(f"codebook of {size} words, cap is {DEFAULT_MAX_MESSAGES}")
    rng = np.random.default_rng(seed)
    letters = rng.choice(p.size, size=(size, n), p=p)
    return Codebook(sender, n, tuple(tuple(int(x) for x in row) for row in letters),
                    seed=int(seed))


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Fixed splitting rule: one 64-bit master seed to `count` child seeds."""
    state = np.random.SeedSequence(int(master_seed)).generate_state(count, dtype=np.uint64)
    return [int(x) for x in state]


def codebooks_from_seed(ch: CqMacChannel, prior: Prior, n: int,
                        sizes: Sequence[int], master_seed: int) -> list[Codebook]:
    """One codebook per sender, seeded by the first s seeds split off the master."""
    if len(sizes) != ch.s:
        raise ValidationError(f"expected {ch.s} codebook sizes, got {len(sizes)}")
    seeds = derive_seeds(master_seed, ch.s + 1)[: ch.s]
    return [
        sample_codebook(prior.per_sender[i], n, int(sizes[i]), seeds[i], sender=i)
        for i in range(ch.s)
    ]


def sizes_from_rates(rates: Sequence[float], n: int, delta: float = 0.0) -> list[int]:
    """Codebook sizes ceil(2^{n (R_i - delta)}), floored at one word, capped like
    `sample_codebook`; a size beyond the cap raises before it is computed."""
    bits = [n * (float(r) - delta) for r in rates]
    if any(b > np.log2(DEFAULT_MAX_MESSAGES) for b in bits):
        raise CapExceeded(f"rates {list(rates)} at n={n} need codebooks of 2^{max(bits):.6g} "
                          f"words, cap is {DEFAULT_MAX_MESSAGES}")
    return [max(1, int(np.ceil(2.0 ** b))) for b in bits]


# ---------------------------------------------------------------------------
# POVMs and gentle instruments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Povm:
    """Labeled decoding observable: PSD elements summing to the identity.

    The elements are checked unless `trusted` says they were built as a POVM
    from checked states (as the sequential decoder builds its measurements).
    """

    dim: int
    elements: tuple[tuple[Hashable, np.ndarray], ...]
    trusted: InitVar[bool] = False
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self, trusted: bool):
        if not trusted:
            ops.check_povm([m for _, m in self.elements], self.dim)
        index = {lab: i for i, (lab, _) in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValidationError("POVM outcome labels must be unique")
        object.__setattr__(self, "_index", index)

    @property
    def matrices(self) -> list[np.ndarray]:
        return [m for _, m in self.elements]

    def _position(self, label: Hashable) -> int | None:
        """Index of the outcome in `elements`, or None when there is none."""
        try:
            return self._index.get(label)
        except TypeError:   # an unhashable label names no outcome
            return None

    def element(self, label: Hashable) -> np.ndarray:
        i = self._position(label)
        if i is None:
            raise ValidationError(f"POVM has no outcome {label!r}")
        return self.elements[i][1]


@dataclass(frozen=True)
class TenderInstrument:
    """A POVM implemented as the branch map rho -> sqrt(D_b) rho sqrt(D_b).

    Each root is computed from the POVM on its first lookup and cached, so
    roots square back by construction and a decoder pays only for the
    outcomes it reads; the simulator looks up a chunk's roots together
    (`_roots`), computing the missing ones in one stacked call.
    """

    povm: Povm
    _roots: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_povm(cls, povm: Povm) -> "TenderInstrument":
        return cls(povm)

    @property
    def sqrt_elements(self) -> tuple[tuple[Hashable, np.ndarray], ...]:
        """Every (label, root) pair, in POVM order."""
        return tuple((lab, self.sqrt_element(lab)) for lab, _ in self.povm.elements)

    def sqrt_element(self, label: Hashable) -> np.ndarray:
        i = self.povm._position(label)
        if i is None:
            raise ValidationError(f"instrument has no outcome {label!r}")
        return _roots([self], [i])[0]


def _stack(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack of equally shaped operators.  When every entry is one operator
    (a chunk of one at large dimension, or tuples sharing an outcome) it is
    viewed as a stack of one, which broadcasts, instead of copied."""
    first = mats[0]
    return first[None] if all(m is first for m in mats) else np.stack(mats)


def _roots(insts: Sequence[TenderInstrument], positions: Sequence[int]) -> list[np.ndarray]:
    """Root of outcome `positions[t]` of `insts[t]`, for each t.

    Roots not yet cached are computed in one stacked op_sqrt (the POVM
    checked its elements, or built them as Hermitian) and cached, so each
    root is computed once, and equals the root computed alone.
    """
    todo = {(id(inst), i): (inst, i) for inst, i in zip(insts, positions)
            if i not in inst._roots}
    if todo:
        roots = ops.op_sqrt(_stack([inst.povm.elements[i][1] for inst, i in todo.values()]),
                            hermitian=True)
        for (inst, i), root in zip(todo.values(), roots):
            inst._roots[i] = root
    return [inst._roots[i] for inst, i in zip(insts, positions)]


FAIL = None  # outcome label of the PGM's residual (off-support) element

# eigendirections below this fraction of the leading eigenvalue of the
# average state cannot be inverted stably in double precision; they count
# as off-support and feed the residual outcome
PGM_SUPPORT_RTOL = 1e-6


def _state_weights(weights: Sequence[float] | None, count: int) -> np.ndarray:
    """Uniform weights, or the given ones checked as a probability vector
    (written so that NaN fails the check)."""
    if weights is None:
        return np.full(count, 1.0 / count)
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != count or not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-10):
        raise ValidationError("weights must be a probability vector over the states")
    return w


def _chunks(count: int, dim: int) -> Iterator[slice]:
    """Consecutive slices of `count` stacked dim x dim complex operators, as
    many per slice as fit in the entropy module's CHUNK_BYTES (at least one)."""
    step = max(1, entropy.CHUNK_BYTES // (16 * dim * dim))
    return (slice(i, i + step) for i in range(0, count, step))


def pgm_decoder(states: Sequence[tuple[Hashable, np.ndarray]],
                weights: Sequence[float] | None = None, *, trusted: bool = False) -> Povm:
    """Square-root measurement of a weighted state family.

    With S the weighted average, each element is S^{-1/2} w_c rho_c S^{-1/2}
    on the (numerically resolvable) support of S; whatever identity mass
    lies off the support becomes a residual outcome labeled FAIL (present
    only when nonzero).  The states are checked as density matrices, and the
    result as a POVM, unless `trusted` says the states were built from
    checked ones (as the sequential decoder builds its candidate states).
    """
    if not len(states):
        raise ValidationError("pretty-good measurement needs at least one state")
    labels = [lab for lab, _ in states]
    mats = [m if trusted else ops.check_density(m, name=f"PGM state {lab!r}")
            for lab, m in states]
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValidationError("PGM states must share one dimension")
    w = _state_weights(weights, len(mats))
    avg = ops.hermitize(sum(wi * m for wi, m in zip(w, mats)))
    inv_root, support = ops.pinv_sqrt(avg, support_rtol=PGM_SUPPORT_RTOL)
    elements = []
    for rows in _chunks(len(mats), dim):
        weighted = np.stack(mats[rows])
        weighted *= w[rows, None, None]
        elements.extend(zip(labels[rows], ops.hermitize(inv_root @ weighted @ inv_root)))
    residual = ops.hermitize(np.eye(dim) - support)
    if float(np.max(np.abs(residual))) > 1e-10:
        elements.append((FAIL, residual))
    return Povm(dim, tuple(elements), trusted=trusted)


def disturbance_check(rho: np.ndarray, x: np.ndarray,
                      epsilon: float | None = None) -> tuple[float, float, float]:
    """Both sides of the gentle-measurement bound for a single operator.

    For 0 <= X <= 1 with success probability Tr(rho X) >= 1 - eps, the state
    after the sqrt(X).sqrt(X) branch is close to the original:
    ||rho - sqrt(X) rho sqrt(X)||_1 <= sqrt(8 eps).  Returns (eps, lhs, bound).
    """
    rho = ops.check_density(rho)
    w, v = ops.eig_hermitian(x)
    if w[0] < -X_SPECTRUM_TOL or w[-1] > 1.0 + X_SPECTRUM_TOL:
        raise ValidationError(
            f"operator spectrum [{w[0]:.3e}, {w[-1]:.3e}] is not within [0, 1]"
        )
    w = np.clip(w, 0.0, 1.0)
    actual = max(0.0, 1.0 - float(np.trace(rho @ ((v * w) @ v.conj().T)).real))
    eps = actual if epsilon is None else float(epsilon)
    if actual > eps + 1e-12:
        raise ValidationError(f"1 - Tr(rho X) = {actual:.6g} exceeds the claimed epsilon {eps:.6g}")
    if eps >= 1.0:
        raise ValidationError(f"epsilon must be < 1, got {eps:.6g}")
    root = ops.hermitize((v * np.sqrt(w)) @ v.conj().T)
    lhs = ops.trace_norm(rho - root @ rho @ root)
    return eps, lhs, float(np.sqrt(8.0 * eps))


@dataclass(frozen=True)
class TenderCheck:
    """Per-state and averaged disturbance of implementing a POVM gently."""

    per_state: tuple[tuple[Hashable, float, float, float], ...]  # (label, eps, dist, bound)
    eps_bar: float
    avg_disturbance: float
    avg_bound: float


def _trace(a: np.ndarray) -> np.ndarray:
    """Real part of the trace of each operator of a stack."""
    return np.trace(a, axis1=-2, axis2=-1).real


def _branch_disturbance(rho: np.ndarray, roots: np.ndarray,
                        leak: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eps, dist) of each state of a stack under its right outcome, given
    the stacked roots sqrt(D_b) and the leaks 1 - Tr(rho D_b).

    eps is the leak floored at 0; dist is the exact deviation of the branch
    map output (with its classical outcome register) from the ideal b (x) rho:
    ||rho - sqrt(D_b) rho sqrt(D_b)||_1 plus the leaked probability
    sum_{b' != b} Tr(rho D_b'), which is 1 - Tr(rho D_b) because `Povm`
    enforces completeness (to 1e-8 per entry).
    """
    dist = ops.trace_norm(rho - roots @ rho @ roots, hermitian=True) + leak
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
    wvec = _state_weights(weights, len(states))
    labels = [a for a, _ in states]
    rhos = np.stack([ops.check_density(rho, name=f"state {a!r}") for a, rho in states])
    leak = 1.0 - _trace(rhos @ np.stack([inst.povm.element(a) for a in labels]))
    roots = np.stack([inst.sqrt_element(a) for a in labels])
    eps_all, dist_all = (x.tolist() for x in _branch_disturbance(rhos, roots, leak))
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
    """

    def __init__(self, ch: CqMacChannel, codebooks: Sequence[Codebook], prior: Prior,
                 max_block_dim: int | None = None):
        if len(codebooks) != ch.s:
            raise ValidationError(f"expected {ch.s} codebooks, got {len(codebooks)}")
        ns = {cb.n for cb in codebooks}
        if len(ns) != 1:
            raise ValidationError(f"codebooks disagree on block length: {sorted(ns)}")
        for i, cb in enumerate(codebooks):
            for w in cb.words:
                if any(x >= ch.sender_alphabets[i] for x in w):
                    raise ValidationError(
                        f"codebook for sender {i} contains letters outside its alphabet"
                    )
        self.channel = ch
        self.codebooks = tuple(codebooks)
        self.prior = prior
        self.n = codebooks[0].n
        self.block = block_channel(ch, self.n, max_block_dim)
        self._words = [np.array(cb.words, dtype=int) for cb in codebooks]   # (L_i, n) each
        # letter table for stage i: senders 0..i explicit, senders > i averaged
        self._stage_tables = [
            reduced_channel(ch, prior, range(i + 1)) for i in range(ch.s)
        ]
        self._cache: dict[tuple[int, tuple[tuple[int, ...], ...]], TenderInstrument] = {}

    def stage_states(self, stage: int,
                     prefix_words: Sequence[Sequence[int]]) -> list[tuple[int, np.ndarray]]:
        """Candidate states for each message of `stage`, given decoded prefix words.

        Position k of message m's state is the stage table's state of the
        letters (prefix_words[0][k], ..., word_m[k]); the states are built as
        stacks of block_states, chunked like the simulator's.
        """
        words = self._words[stage]
        prefix = np.array(prefix_words, dtype=int).reshape(stage, self.n).T   # (n, stage)
        letters = np.concatenate(
            [np.broadcast_to(prefix, (len(words),) + prefix.shape), words[:, :, None]], axis=-1)
        out = []
        for rows in _chunks(len(words), self.block.output_dim):
            out.extend(block_states(self._stage_tables[stage], letters[rows]))
        return list(enumerate(out))

    def stage_instrument(self, stage: int,
                         prefix_words: Sequence[Sequence[int]]) -> TenderInstrument:
        if stage < 0 or stage >= self.channel.s:
            raise ValidationError(f"stage {stage} out of range")
        if len(prefix_words) != stage:
            raise ValidationError(f"stage {stage} needs {stage} prefix words")
        key = (stage, tuple(tuple(int(x) for x in w) for w in prefix_words))
        inst = self._cache.get(key)
        if inst is None:
            povm = pgm_decoder(self.stage_states(stage, key[1]), trusted=True)
            inst = TenderInstrument.from_povm(povm)
            self._cache[key] = inst
        return inst


def _stage_instruments(decoder: SequentialDecoder, stage: int,
                       prefixes: list[list[int]]) -> list[TenderInstrument]:
    """The stage's instrument for each row of decoded prefix messages, looked
    up once per distinct prefix."""
    found: dict[tuple[int, ...], TenderInstrument] = {}
    out = []
    for prefix in map(tuple, prefixes):
        inst = found.get(prefix)
        if inst is None:
            inst = found[prefix] = decoder.stage_instrument(
                stage, [decoder.codebooks[j].words[m] for j, m in enumerate(prefix)])
        out.append(inst)
    return out


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
        # wall clock is intentionally excluded: reports with equal seeds must
        # serialize byte-identically
        return {
            "n": self.n,
            "sizes": list(self.sizes),
            "rates": list(self.rates),
            "mode": self.mode,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "codebook_seeds": list(self.codebook_seeds),
            "trial_seed": self.trial_seed,
            "messages_evaluated": self.messages_evaluated,
            "avg_error": self.avg_error,
            "stage_success": list(self.stage_success),
            "stage_errors": list(self.stage_errors),
            "stage_eps_bar": list(self.stage_eps_bar),
            "stage_disturbance": list(self.stage_disturbance),
            "stage_disturbance_bound": list(self.stage_disturbance_bound),
        }

    def csv_rows(self) -> tuple[list[str], list]:
        header = (
            ["n"] + [f"L{i + 1}" for i in range(len(self.sizes))] + ["avg_error"]
            + [f"stage_error_{i + 1}" for i in range(len(self.stage_errors))]
        )
        row = [self.n, *self.sizes, self.avg_error, *self.stage_errors]
        return header, row


def average_error(ch: CqMacChannel, codebooks: Sequence[Codebook], prior: Prior,
                  mode: str = "exhaustive", trials: int | None = None,
                  seed: int | None = None, max_block_dim: int | None = None,
                  master_seed: int | None = None) -> SimReport:
    """Mean decoding error over message tuples, with per-stage gentleness stats.

    "exhaustive" enumerates every message tuple (product of codebook sizes
    capped at 4096); "monte_carlo" samples `trials` >= 1 tuples uniformly
    using `seed`.  For each stage the report carries the average stage error
    on undisturbed inputs and the exact average disturbance the gentle
    measurement inflicts, with its sqrt(8 eps) + eps bound.
    """
    t0 = time.perf_counter()
    decoder = SequentialDecoder(ch, codebooks, prior, max_block_dim)
    sizes = tuple(cb.size for cb in codebooks)
    if mode == "exhaustive":
        count = int(np.prod(sizes))
        if count > DEFAULT_MAX_MESSAGES:
            raise CapExceeded(f"exhaustive decoding needs {count} message tuples, "
                              f"cap is {DEFAULT_MAX_MESSAGES}")
        msgs = np.indices(sizes).reshape(len(sizes), -1).T   # lexicographic order
        trial_seed = None
    elif mode == "monte_carlo":
        if trials is None or seed is None:
            raise ValidationError("monte_carlo mode needs trials= and seed=")
        if trials < 1:
            raise ValidationError(f"trials must be >= 1, got {trials}")
        rng = np.random.default_rng(int(seed))
        msgs = np.array([[int(rng.integers(L)) for L in sizes] for _ in range(trials)])
        trial_seed = int(seed)
    else:
        raise ValidationError(f"mode must be 'exhaustive' or 'monte_carlo', got {mode!r}")

    s = ch.s
    n = decoder.n
    stage_success = np.zeros(s)
    stage_eps = np.zeros(s)
    stage_dist = np.zeros(s)
    total_error = 0.0
    # message tuples go through the stages in chunks of stacked operators;
    # per-tuple values are then added in tuple order, as one tuple at a time would
    for rows in _chunks(len(msgs), decoder.block.output_dim):
        msg = msgs[rows]
        words = np.stack([decoder._words[i][msg[:, i]] for i in range(s)], axis=1)
        sigma0 = decoder.block.state_for_words(words)
        sigma = sigma0
        for i in range(s):
            insts = _stage_instruments(decoder, i, msg[:, :i].tolist())
            positions = [inst.povm._position(b) for inst, b in zip(insts, msg[:, i].tolist())]
            # gentleness accounting on the undisturbed word states
            leak = 1.0 - _trace(
                sigma0 @ _stack([inst.povm.elements[k][1] for inst, k in zip(insts, positions)]))
            roots = _stack(_roots(insts, positions))
            eps, dist = _branch_disturbance(sigma0, roots, leak)
            sigma = roots @ sigma @ roots
            success = _trace(sigma)
            for total, values in ((stage_eps, eps), (stage_dist, dist),
                                  (stage_success, success)):
                for v in values.tolist():
                    total[i] += v
        for v in success.tolist():   # the last stage's success: every sender decoded
            total_error += 1.0 - v

    count = len(msgs)
    stage_success /= count
    stage_eps /= count
    stage_dist /= count
    total_error /= count
    bounds = tuple(float(np.sqrt(8.0 * e) + e) for e in stage_eps)
    return SimReport(
        n=n,
        sizes=sizes,
        rates=tuple(float(np.log2(L)) / n for L in sizes),
        mode=mode,
        trials=trials if mode == "monte_carlo" else None,
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


def run_simulation(ch: CqMacChannel, prior: Prior, n: int, sizes: Sequence[int],
                   master_seed: int, mode: str = "exhaustive",
                   trials: int | None = None,
                   max_block_dim: int | None = None) -> SimReport:
    """Sample codebooks from a master seed and evaluate the code.

    The master seed splits into one seed per codebook plus one for Monte
    Carlo message sampling, so reports are bit-exact replayable.
    """
    block_channel(ch, n, max_block_dim)   # capped before n-letter words are drawn
    codebooks = codebooks_from_seed(ch, prior, n, sizes, master_seed)
    trial_seed = derive_seeds(master_seed, ch.s + 1)[ch.s]
    return average_error(
        ch, codebooks, prior, mode=mode, trials=trials,
        seed=trial_seed if mode == "monte_carlo" else None,
        max_block_dim=max_block_dim, master_seed=int(master_seed),
    )
