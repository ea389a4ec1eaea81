"""Independent test oracles.

Everything here is written from scratch on plain probability arrays and
scalar math so the library's entropy/region/decoding paths are checked
against genuinely different computations: classical Shannon quantities for
diagonal channels, 2x2 closed forms, maximum-posterior decoding, dense
word states as Kronecker products of letter states, a full
outcome-tree enumeration of the sequential decoder, the element-by-element
leak of a gentle instrument, a reduced channel averaged one letter tuple at
a time, membership in a two-sender hull by
interpolation along its vertices, positivity decided by a full
eigendecomposition, the branches of a gentle instrument, the simulator's
average error taken one message tuple at a time, corners taken one decode
order and one stage at a time and deduplicated one point at a time, the
prior sweep taken one validated prior at a time, the region report
built as one document, an ensemble's averaged state entropy taken one
atom state at a time, the entropy table with every group state averaged
under its ensemble's full weights, an extended-precision (mpmath)
eigendecomposition and square root, the closed-form root of a rank-1
operator, and a pretty-good measurement's FAIL outcome decided from the
largest entry of its residual.

It also holds the API that only tests use: point-mass priors, random
diagonal channels, random channels of exactly rank-deficient letters, an
instrument's root of one outcome and its roots listed in POVM order,
writing a channel back to its JSON form, a recorder of every state a
check reads, the entropy table of one ensemble, and the report of every
entropy and conditional mutual information of an ensemble.
"""

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from qmac import entropy as ent
from qmac import operators as ops
from qmac import region
from qmac.channel import ATOM_FLOOR, CqMacChannel, Prior, mask_members
from qmac.checks import random_prior_vec
from qmac.coding import SequentialDecoder, SimReport, _roots
from qmac.config import DEFAULT_MAX_MESSAGES, CapExceeded
from qmac.operators import ValidationError

BRANCH_FLOOR = 1e-15   # measurement branches below this probability are dropped


def shannon(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def classical_joint(prior_vecs, cond) -> np.ndarray:
    """Joint distribution p[x_1, ..., x_s, y] of a classical channel.

    `cond` maps letter tuples to output probability vectors.
    """
    shape = tuple(len(v) for v in prior_vecs)
    d = len(next(iter(cond.values())))
    joint = np.zeros(shape + (d,))
    for letters in itertools.product(*(range(a) for a in shape)):
        px = 1.0
        for v, x in zip(prior_vecs, letters):
            px *= float(v[x])
        joint[letters] = px * np.asarray(cond[letters], dtype=float)
    return joint


def _marginal_entropy(joint: np.ndarray, axes) -> float:
    keep = tuple(sorted(axes))
    drop = tuple(i for i in range(joint.ndim) if i not in keep)
    m = joint.sum(axis=drop) if drop else joint
    return shannon(m)


def classical_bound(joint: np.ndarray, members) -> float:
    """I(X(J); Y | X(Jc)) in bits from the joint distribution.

    Axis layout: senders 0..s-1 then the output axis.
    """
    s = joint.ndim - 1
    j = set(members)
    jc = set(range(s)) - j
    y = {s}
    h = _marginal_entropy
    return (h(joint, j | jc) + h(joint, jc | y)
            - h(joint, j | jc | y) - h(joint, jc))


def classical_corner(joint: np.ndarray, perm) -> tuple[float, ...]:
    """Successive-decoding rates: stage i gets I(X_k; Y, X_decoded)."""
    s = joint.ndim - 1
    y = {s}
    rates = [0.0] * s
    decoded: set = set()
    h = _marginal_entropy
    for k in perm:
        rates[k] = (h(joint, {k}) + h(joint, decoded | y)
                    - h(joint, decoded | {k} | y))
        decoded = decoded | {k}
    return tuple(rates)


def reduced_channel_loop(ch, prior, members) -> dict:
    """Reduced channel by one loop per subset tuple and complement tuple:
    the prior-weighted sum of full-table states, in lexicographic order of
    the complement's letters, then its Hermitian part."""
    inside = sorted(members)
    outside = [i for i in range(ch.s) if i not in inside]
    out = {}
    for letters in itertools.product(*(range(ch.sender_alphabets[i]) for i in inside)):
        acc = np.zeros((ch.output_dim, ch.output_dim), dtype=complex)
        for rest in itertools.product(*(range(ch.sender_alphabets[i]) for i in outside)):
            full = [0] * ch.s
            for i, x in zip(inside, letters):
                full[i] = x
            w = 1.0
            for i, x in zip(outside, rest):
                full[i] = x
                w *= float(prior.per_sender[i][x])
            acc += w * ch.state(full)
        out[letters] = (acc + acc.conj().T) / 2
    return out


def map_error(diag_states, weights) -> float:
    """Bayes-optimal (maximum posterior) error for commuting diagonal states."""
    q = np.asarray(diag_states, dtype=float)   # shape (m, d)
    w = np.asarray(weights, dtype=float).ravel()
    return float(1.0 - np.max(w[:, None] * q, axis=0).sum())


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def two_pure_state_chi(overlap_sq: float, p: float = 0.5) -> float:
    """Holevo quantity of two pure states with squared overlap, closed form.

    The average state's top eigenvalue is (1 + sqrt(1 - 4 p (1-p) (1 - o2)))/2
    and both states being pure the quantity is its binary entropy.
    """
    top = 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * p * (1.0 - p) * (1.0 - overlap_sq)))
    return binary_entropy(float(top))


def two_pure_state_pgm_success(overlap_sq: float) -> float:
    """Average success of the square-root measurement on two equiprobable
    pure states; for this symmetric pair it meets the optimum
    (1 + sqrt(1 - o2)) / 2."""
    return float(0.5 * (1.0 + np.sqrt(1.0 - overlap_sq)))


def word_states(ch, words) -> np.ndarray:
    """Dense output state of one word per sender, (s, n) letters, or the
    stack of states of a stack (..., s, n) of such word tuples: the Kronecker
    product over positions of `ch.state` of each position's letter tuple."""
    words = np.asarray(words, dtype=int)
    states = [functools.reduce(np.kron, [ch.state(letters) for letters in w.T])
              for w in words.reshape((-1,) + words.shape[-2:])]
    return np.array(states).reshape(words.shape[:-2] + states[0].shape)


def decode_tree(channel, codebooks, prior, messages, stage_instrument, word_state):
    """Enumerate every outcome chain of the sequential decoder.

    Conditions stage i's instrument on the outcomes actually decoded (not the
    true words), which is what a physical run does, and returns
    (P(all outcomes correct), total probability over all leaves).  The callers
    supply `stage_instrument(stage, prefix_words)` and `word_state(words)`;
    branch bookkeeping here is written independently of the library's
    operator-chain shortcut.
    """
    words = [cb.words[m] for cb, m in zip(codebooks, messages)]
    sigma0 = word_state(words)
    total = 0.0
    correct = 0.0
    stack = [((), 1.0, sigma0)]
    while stack:
        outcomes, prob, state = stack.pop()
        stage = len(outcomes)
        if stage == channel.s:
            total += prob
            if all(o == m for o, m in zip(outcomes, messages)):
                correct += prob
            continue
        prefix = [codebooks[j].words[o] for j, o in enumerate(outcomes)]
        inst = stage_instrument(stage, prefix)
        remaining = 1.0
        for lab, elem in inst.povm.elements:
            p = float(np.trace(state @ elem).real)
            remaining -= p
            if p <= 1e-15:
                continue
            if lab is None:
                total += prob * p   # residual outcome: decoding fails outright
                continue
            root = sqrt_element(inst, lab)
            post = (root @ state @ root) / p
            stack.append((outcomes + (lab,), prob * p, post))
        total += prob * max(remaining, 0.0)
    return correct, total


def sqrt_element(inst, label):
    """The root of a gentle instrument's outcome `label`, read through the
    POVM's root cache as the simulator reads it (made on the first read and
    kept)."""
    return _roots([inst.povm], [inst.povm._require(label)])[0]


def sqrt_elements(inst) -> tuple:
    """Every (label, root) pair of a gentle instrument, in POVM order."""
    return tuple((lab, sqrt_element(inst, lab)) for lab, _ in inst.povm.elements)


def tender_apply(inst, rho) -> list:
    """All measurement branches (outcome, probability, normalized post-state)
    of a gentle instrument: probabilities Tr(rho D_b), summing to 1, with
    branches at or below 1e-15 dropped; the post-state of branch b is
    sqrt(D_b) rho sqrt(D_b) / p_b."""
    rho = ops.check_density(rho)
    if rho.shape[0] != inst.povm.dim:
        raise ValidationError(
            f"state dimension {rho.shape[0]} does not match POVM dimension {inst.povm.dim}"
        )
    out = []
    for (lab, elem), (_, root) in zip(inst.povm.elements, sqrt_elements(inst)):
        p = float(np.trace(rho @ elem).real)
        if p <= BRANCH_FLOOR:
            continue
        post = ops.hermitize(root @ rho @ root) / p
        out.append((lab, p, post))
    return out


def message_tuples(sizes, trials=None, seed=None) -> list[tuple[int, ...]]:
    """The message tuples `qmac.coding.average_error` evaluates, in its
    order: every tuple in lexicographic order, or `trials` tuples drawn with
    `seed` (Monte Carlo)."""
    if trials is None:
        return list(itertools.product(*(range(L) for L in sizes)))
    rng = np.random.default_rng(int(seed))
    return [tuple(int(rng.integers(L)) for L in sizes) for _ in range(trials)]


def average_error_loop(ch, codebooks, prior, mode="exhaustive", trials=None, seed=None,
                       master_seed=None) -> SimReport:
    """`qmac.coding.average_error` one message tuple at a time.

    Each tuple's dense block state is built alone by `word_states`, then
    each stage looks up its instrument, adds the tuple's leak and
    disturbance on the undisturbed state, and applies the right outcome's
    root to the running state.  Same arguments and tuple order as the
    chunked simulator, but every state is a dense d^n x d^n matrix where the
    simulator carries its factor, so the two reports agree to rounding, not
    bit for bit.
    """
    t0 = time.perf_counter()
    decoder = SequentialDecoder(ch, codebooks, prior)
    sizes = tuple(cb.size for cb in codebooks)
    if mode == "exhaustive":
        count = int(np.prod(sizes))
        if count > DEFAULT_MAX_MESSAGES:
            raise CapExceeded(f"exhaustive decoding needs {count} message tuples, "
                              f"cap is {DEFAULT_MAX_MESSAGES}")
        tuples = message_tuples(sizes)
        trial_seed = None
    elif mode == "monte_carlo":
        if trials is None or seed is None:
            raise ValidationError("monte_carlo mode needs trials= and seed=")
        if trials < 1:
            raise ValidationError(f"trials must be >= 1, got {trials}")
        tuples = message_tuples(sizes, trials, seed)
        trial_seed = int(seed)
    else:
        raise ValidationError(f"mode must be 'exhaustive' or 'monte_carlo', got {mode!r}")

    s = ch.s
    n = decoder.n
    stage_success = np.zeros(s)
    stage_eps = np.zeros(s)
    stage_dist = np.zeros(s)
    total_error = 0.0
    for msg in tuples:
        words = [cb.words[m] for cb, m in zip(codebooks, msg)]
        sigma0 = word_states(ch, words)
        sigma = sigma0
        for i in range(s):
            inst = decoder.stage_instrument(i, words[:i])
            root = sqrt_element(inst, msg[i])
            leak = 1.0 - float(np.trace(sigma0 @ inst.povm.element(msg[i])).real)
            dist = ops.trace_norm(sigma0 - root @ sigma0 @ root, hermitian=True) + leak
            stage_eps[i] += max(0.0, leak)
            stage_dist[i] += dist
            sigma = root @ sigma @ root
            stage_success[i] += float(np.trace(sigma).real)
        total_error += 1.0 - float(np.trace(sigma).real)

    count = len(tuples)
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


def explicit_leak(rho, inst, b) -> float:
    """Probability the instrument sends rho to a wrong outcome, summed element
    by element: sum over b' != b of Tr(rho D_b')."""
    return sum(float(np.trace(rho @ elem).real)
               for lab, elem in inst.povm.elements if lab != b)


def pgm_residual_rule(mats, support_rtol: float) -> tuple[bool, np.ndarray]:
    """Whether the pretty-good measurement of the equally likely states `mats`
    has a FAIL outcome, by the residual rule: an entry of the residual
    I - P above 1e-10 in magnitude, P the projector onto the eigenvectors of
    their average S above max(1e-12, support_rtol * max_eig).  Also returns
    the residual, with S summed, and P and the residual formed, as the
    decoder's FAIL element is, so that the two are equal bit for bit."""
    w = np.full(len(mats), 1.0 / len(mats))
    avg = ops.hermitize(sum(wi * np.asarray(m, dtype=complex) for wi, m in zip(w, mats)))
    lam, v = np.linalg.eigh(ops.hermitize(avg))
    on = lam > max(1e-12, float(lam[-1]) * support_rtol)
    residual = ops.hermitize(np.eye(len(avg)) - ops.hermitize((v * on.astype(float)) @ v.conj().T))
    return float(np.max(np.abs(residual))) > 1e-10, residual


def smallest_eigenvalue(a) -> float:
    """Smallest eigenvalue of the Hermitian part of a, from eigvalsh."""
    a = np.asarray(a, dtype=complex)
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0])


def psd_within(a, clamp=1e-10) -> bool:
    """The positivity predicate of the library's density and POVM checks:
    smallest eigenvalue >= -clamp."""
    return not smallest_eigenvalue(a) < -clamp


def hull_member_2d(point, vertices, tol=1e-9) -> bool:
    """Membership of a two-sender point in the downward-closed region whose
    upper boundary has the given vertices, sorted by increasing first rate
    and decreasing second rate (the (k, 2) array upper_boundary_2d returns).

    The boundary runs from (0, y_max) through the vertices down to
    (x_max, 0); the point (x, y) is inside iff it lies under that polyline.
    """
    x, y = point
    pts = [tuple(v) for v in vertices.tolist()]
    x_max = max(px for px, _ in pts)
    y_max = max(py for _, py in pts)
    boundary = [(0.0, y_max)] + pts + [(x_max, 0.0)]
    for (x1, y1), (x2, y2) in zip(boundary, boundary[1:]):
        if x1 - tol <= x <= x2 + tol:
            if x2 - x1 < 1e-15:
                limit = max(y1, y2)
            else:
                limit = y1 + (y2 - y1) * (x - x1) / (x2 - x1)
            if y <= limit + tol:
                return True
    return False


def random_diagonal_channel(rng, max_senders=3, max_alphabet=3, max_output_dim=4) -> CqMacChannel:
    """Random quasi-classical channel: every state diagonal, drawn as
    `qmac.checks.random_channel` draws its shape."""
    s = int(rng.integers(1, max_senders + 1))
    alphabets = tuple(int(rng.integers(2, max_alphabet + 1)) for _ in range(s))
    d = int(rng.integers(2, max_output_dim + 1))
    states = {
        letters: np.diag(random_prior_vec(rng, d)).astype(complex)
        for letters in itertools.product(*(range(a) for a in alphabets))
    }
    return CqMacChannel(alphabets, d, states)


def low_rank_channel(rng, alphabets, d, ranks) -> CqMacChannel:
    """Channel whose letter tuples, in table order, have states G G† / Tr of
    the given ranks (repeated as needed), G a random d x rank matrix: each
    state has exactly that rank."""
    states = {}
    for letters, rank in zip(itertools.product(*(range(a) for a in alphabets)),
                             itertools.cycle(ranks)):
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        states[letters] = g @ g.conj().T / np.linalg.norm(g) ** 2
    return CqMacChannel(tuple(alphabets), d, states)


def count_checked_states(monkeypatch) -> list:
    """Record every state checked from now on: one entry per `check_density`
    call, and one per matrix of each stack `densities_pass` checks."""
    checked = []
    check_density, densities_pass = ops.check_density, ops.densities_pass

    def one(rho, *args, **kwargs):
        checked.append(np.array(rho))
        return check_density(rho, *args, **kwargs)

    def stacked(stack):
        checked.extend(np.array(stack))
        return densities_pass(stack)

    monkeypatch.setattr(ops, "check_density", one)
    monkeypatch.setattr(ops, "densities_pass", stacked)
    return checked


def point_mass_prior(alphabet_sizes, letters) -> Prior:
    vecs = []
    for a, x in zip(alphabet_sizes, letters):
        v = np.zeros(a)
        v[x] = 1.0
        vecs.append(v)
    return Prior(tuple(vecs))


def channel_to_dict(ch: CqMacChannel) -> dict:
    states = {}
    for key in ch.joint_letters():
        mat = ch.states[key]
        states[",".join(str(x) for x in key)] = np.stack([mat.real, mat.imag], -1).tolist()
    return {
        "senders": [
            {"name": name, "alphabet": a}
            for name, a in zip(ch.sender_names, ch.sender_alphabets)
        ],
        "output_dim": ch.output_dim,
        "states": states,
    }


def bundled_channel_json(name: str) -> dict:
    """The JSON document of a bundled channel, read from the package data as
    shipped, for tests that edit it before parsing."""
    text = resources.files("qmac.data").joinpath(f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def save_channel(ch: CqMacChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(ch), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class InfoReport:
    """Entropies and conditional mutual informations of one ensemble."""

    entropies: dict[str, float]
    conditional_mi: dict[str, float]
    conditional_mi_raw: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "H": dict(sorted(self.entropies.items())),
            "I_cond": dict(sorted(self.conditional_mi.items())),
            "I_cond_raw": dict(sorted(self.conditional_mi_raw.items())),
        }


def info_report(e) -> InfoReport:
    """All subsystem entropies and all I(X(J) ^ Y | X(Jc)) of an ensemble,
    read off the library's entropy table."""
    arity = len(e.label_spaces)
    table = entropy_table(e)
    entropies = {
        ent.SubsystemSelector.of(mask_members(mask), quantum).key(): table[mask][quantum]
        for mask in range(1 << arity) for quantum in (0, 1) if mask or quantum
    }
    raw = {str(mask): ent.table_mi(table, mask, arity) for mask in range(1, 1 << arity)}
    cond = {key: ent.clamp_mi(value, f"mask {key}") for key, value in raw.items()}
    return InfoReport(entropies, cond, raw)


def state_entropy_loop(e) -> float:
    """sum_l p(l) S(state_l) in bits of an ensemble's atoms, one eigvalsh per
    state, the terms added in atom order."""
    return float(sum(p * ops.shannon_bits(np.linalg.eigvalsh(rho)) for _, p, rho in e.atoms))


def entropy_table(e) -> list:
    """H of every (label subset mask, include-quantum) block of one ensemble:
    the `entropy.entropy_tables` row of its atoms."""
    weights = np.zeros((1,) + e.label_spaces)
    states = np.zeros(e.label_spaces + (e.quantum_dim,) * 2, dtype=complex)
    for label, p, rho in e.atoms:
        weights[(0,) + label] = p
        states[label] = rho
    return ent.entropy_tables([weights], states)[0].tolist()


def entropy_tables_full(factors, states) -> np.ndarray:
    """`entropy.entropy_tables` by full weights: each ensemble's group states
    are averaged under its own product weights, labels below ATOM_FLOOR
    dropped, and diagonalized, every ensemble and mask in one stack."""
    num = factors[0].shape[0]
    spaces = states.shape[:-2]
    s, d = len(spaces), states.shape[-1]
    labels = list(range(1, s + 1))
    table = np.zeros((num, 1 << s, 2))
    w = functools.reduce(np.multiply, factors)
    w = np.where(w >= ATOM_FLOOR, w, 0.0)
    for mask in range(1 << s):
        kept = [1 + i for i in range(s) if mask >> i & 1]
        flat = w.sum(axis=tuple(ax for ax in labels if ax not in kept)).reshape(num, -1)
        h = ops.shannon_bits(flat)
        table[:, mask, 1] = h
        if mask:
            table[:, mask, 0] = h
        if d == 1:
            continue
        blocks = np.einsum(w, [0, *labels], states, [*labels, s + 1, s + 2],
                           [0, *kept, s + 1, s + 2])
        live = flat >= ATOM_FLOOR
        blocks = blocks.reshape(-1, d, d) / np.where(live, flat, 1.0).reshape(-1, 1, 1)
        block_h = ops.shannon_bits(np.linalg.eigvalsh(ops.hermitize(blocks))).reshape(flat.shape)
        table[:, mask, 1] += np.where(live, flat * block_h, 0.0).sum(axis=1)
    return table


def eigh_mp(a, dps=50) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian
    matrix of dimension at most 16, computed by mpmath in `dps` digits from
    the matrix's exact entries and rounded to double at the end."""
    import mpmath

    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n > 16:
        raise ValueError(f"eigh_mp takes dimension <= 16, got {n}")
    with mpmath.workdps(dps):
        values, vectors = mpmath.eighe(mpmath.matrix(a.tolist()))
        values = np.array([float(x) for x in values])
        vectors = np.array([[complex(vectors[i, j]) for j in range(n)] for i in range(n)])
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def op_sqrt_mp(a, dps=50) -> np.ndarray:
    """Square root of a PSD matrix of dimension at most 16 in `dps` digits:
    mpmath's eigendecomposition, eigenvalues below 0 clipped, the root
    rebuilt in the same precision."""
    import mpmath

    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n > 16:
        raise ValueError(f"op_sqrt_mp takes dimension <= 16, got {n}")
    with mpmath.workdps(dps):
        values, vectors = mpmath.eighe(mpmath.matrix(a.tolist()))
        roots = mpmath.diag([mpmath.sqrt(max(x, 0)) for x in values])
        root = vectors * roots * vectors.transpose_conj()
        return np.array([[complex(root[i, j]) for j in range(n)] for i in range(n)])


def rank1_root(mu) -> np.ndarray:
    """Closed-form square root |mu><mu| / ||mu|| of the rank-1 operator
    |mu><mu|, at any dimension."""
    mu = np.asarray(mu, dtype=complex)
    return np.outer(mu, mu.conj()) / np.linalg.norm(mu)


def grid_priors(alphabet_sizes, resolution) -> list:
    """The sweep grid as validated priors: per sender every composition c of
    the resolution (lexicographic) as c / resolution, senders multiplied out
    lexicographically, the first slowest."""
    per_sender = [
        [np.array(c, dtype=float) / resolution
         for c in itertools.product(range(resolution + 1), repeat=a) if sum(c) == resolution]
        for a in alphabet_sizes
    ]
    return [Prior(tuple(vs)) for vs in itertools.product(*per_sender)]


def corner_table_loop(ch, prior, table=None) -> dict:
    """`qmac.region.corner_table` one decode order and one stage at a time:
    stage i decodes sender perm[i] with R = H(X_k) + H(X_A, Y) - H(X_A + k, Y),
    each stage clamped by `entropy.clamp_mi`, each corner a RatePoint."""
    if table is None:
        (table,) = region.prior_tables(ch, [prior])
    table = table.tolist()
    corners = {}
    for perm in itertools.permutations(range(ch.s)):
        rates = [0.0] * ch.s
        decoded_mask = 0
        for k in perm:
            h_k = table[1 << k][0]
            h_ay = table[decoded_mask][1]
            h_aky = table[decoded_mask | 1 << k][1]
            rates[k] = ent.clamp_mi(h_k + h_ay - h_aky, f"corner stage for sender {k}")
            decoded_mask |= 1 << k
        corners[perm] = region.RatePoint(tuple(rates))
    return corners


def dedup_points(pairs, tol=region.CORNER_DEDUP_TOL) -> list:
    """Keep each (perm, point) pair whose point is farther than tol (max-norm)
    from every point kept before it."""
    kept = []
    for perm, point in pairs:
        if not any(
            max(abs(a - b) for a, b in zip(point.rates, q.rates)) <= tol for _, q in kept
        ):
            kept.append((perm, point))
    return kept


def corners_loop(ch, prior, table=None) -> list:
    """`qmac.region.table_corners` of one prior's table, as (perm, RatePoint)
    pairs, by `corner_table_loop` and `dedup_points`."""
    return dedup_points(sorted(corner_table_loop(ch, prior, table).items()))


def member_corners_loop(cs, tol) -> list:
    """`qmac.region.member_corners` by `corner_from_bounds` and `dedup_points`."""
    pairs = ((perm, region.corner_from_bounds(cs, perm))
             for perm in sorted(itertools.permutations(range(cs.s))))
    return dedup_points([(perm, point) for perm, point in pairs
                         if region.is_member(point, cs, tol)], tol)


def sweep_loop(ch, resolution) -> list:
    """`qmac.region.boundary_sweep` one validated prior at a time: each grid
    prior's bounds from `constraint_set` and its corners from `corners_loop`,
    both off the prior's entropy table.  One
    (prior id, prior, constraint set, ((perm, RatePoint), ...)) per prior."""
    priors = grid_priors(ch.sender_alphabets, resolution)
    return [
        (idx, prior, region.constraint_set(ch, prior, table=table),
         tuple(corners_loop(ch, prior, table)))
        for idx, (prior, table) in enumerate(zip(priors, region.prior_tables(ch, priors)))
    ]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def region_csv(bound_rows) -> str:
    """Region CSV text of (prior id, mask, bound) rows."""
    lines = ["prior_id,subset_mask,bound_bits"]
    lines += [f"{pid},{mask},{_fmt(b)}" for pid, mask, b in bound_rows]
    return "\n".join(lines) + "\n"


def corners_csv(corner_rows, s) -> str:
    """Corner CSV text of (prior id, perm, RatePoint) rows."""
    head = ",".join([f"R_{i + 1}" for i in range(s)])
    lines = [f"prior_id,perm,{head}"]
    for pid, perm, point in corner_rows:
        rates = ",".join(_fmt(r) for r in point.rates)
        lines.append(f"{pid},{'-'.join(str(i + 1) for i in perm)},{rates}")
    return "\n".join(lines) + "\n"


def region_report(ch, *, resolution=None, prior=None, mixture=None, corners=False, tol=1e-9):
    """`qmac region`'s numbers by the per-prior path, as (the JSON document,
    the region CSV text, the corner CSV text or None): a sweep of the grid
    at `resolution` through `sweep_loop`, else the mixture outer bound of
    `mixture` (a MixtureSpec), else the single `prior`."""
    s = ch.s
    bound_rows, corner_rows, priors_doc, hull_doc = [], [], [], None
    if resolution is not None:
        corners = True
        points = []
        for pid, pr, cs, pairs in sweep_loop(ch, resolution):
            priors_doc.append({"id": pid, "per_sender": [v.tolist() for v in pr.per_sender]})
            bound_rows += [(pid, mask, cs.bounds[mask]) for mask in sorted(cs.bounds)]
            corner_rows += [(pid, perm, point) for perm, point in pairs]
            points += [point for _, point in pairs]
        if s == 2:
            hull_doc = region.upper_boundary_2d([p.rates for p in points]).tolist()
    elif mixture is not None:
        cs = region.mixture_constraints(ch, mixture)
        priors_doc = [{"id": u, "weight": w, "per_sender": [v.tolist() for v in pr.per_sender]}
                      for u, (w, pr) in enumerate(mixture.components)]
        bound_rows = [("mix", mask, cs.bounds[mask]) for mask in sorted(cs.bounds)]
        if corners:
            corner_rows = [("mix", perm, point) for perm, point in member_corners_loop(cs, tol)]
    else:
        priors_doc = [{"id": 0, "per_sender": [v.tolist() for v in prior.per_sender]}]
        cs = region.constraint_set(ch, prior)
        bound_rows = [(0, mask, cs.bounds[mask]) for mask in sorted(cs.bounds)]
        if corners:
            corner_rows = [(0, perm, point) for perm, point in corners_loop(ch, prior)]
    doc = {"priors": priors_doc,
           "region": [{"prior_id": pid, "subset_mask": mask, "bound_bits": b}
                      for pid, mask, b in bound_rows]}
    if corners:
        doc["corners"] = [{"prior_id": pid, "perm": [i + 1 for i in perm],
                           "rates": list(point.rates)} for pid, perm, point in corner_rows]
    if hull_doc is not None:
        doc["hull"] = hull_doc
    return doc, region_csv(bound_rows), corners_csv(corner_rows, s) if corners else None


def signed(value):
    """A nested structure with each float x replaced by (x, sign bit of x), so
    that == tells 0.0 from -0.0."""
    if isinstance(value, float):
        return (value, math.copysign(1.0, value))
    if isinstance(value, dict):
        return {key: signed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [signed(v) for v in value]
    return value
