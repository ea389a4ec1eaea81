"""Independent test oracles.

Everything here is written from scratch on plain probability arrays and
scalar math so the library's entropy/region/decoding paths are checked
against genuinely different computations: classical Shannon quantities for
diagonal channels, 2x2 closed forms, maximum-posterior decoding, a full
outcome-tree enumeration of the sequential decoder, the element-by-element
leak of a gentle instrument, a reduced channel averaged one letter tuple at
a time, membership in a two-sender hull by
interpolation along its vertices, positivity decided by a full
eigendecomposition, the branches of a gentle instrument, and the simulator's
average error taken one message tuple at a time.
"""

import itertools
import time

import numpy as np

from qmac import operators as ops
from qmac.coding import SequentialDecoder, SimReport
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
            root = inst.sqrt_element(lab)
            post = (root @ state @ root) / p
            stack.append((outcomes + (lab,), prob * p, post))
        total += prob * max(remaining, 0.0)
    return correct, total


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
    for (lab, elem), (_, root) in zip(inst.povm.elements, inst.sqrt_elements):
        p = float(np.trace(rho @ elem).real)
        if p <= BRANCH_FLOOR:
            continue
        post = ops.hermitize(root @ rho @ root) / p
        out.append((lab, p, post))
    return out


def average_error_loop(ch, codebooks, prior, mode="exhaustive", trials=None, seed=None,
                       max_block_dim=None, master_seed=None) -> SimReport:
    """`qmac.coding.average_error` one message tuple at a time.

    Each tuple's block state is built alone, then each stage looks up its
    instrument, adds the tuple's leak and disturbance on the undisturbed
    state, and applies the right outcome's root to the running state.  Same
    arguments, tuple order and float operations as the chunked simulator,
    so its report must be identical.
    """
    t0 = time.perf_counter()
    decoder = SequentialDecoder(ch, codebooks, prior, max_block_dim)
    sizes = tuple(cb.size for cb in codebooks)
    if mode == "exhaustive":
        count = int(np.prod(sizes))
        if count > DEFAULT_MAX_MESSAGES:
            raise CapExceeded(f"exhaustive decoding needs {count} message tuples, "
                              f"cap is {DEFAULT_MAX_MESSAGES}")
        tuples = list(itertools.product(*(range(L) for L in sizes)))
        trial_seed = None
    elif mode == "monte_carlo":
        if trials is None or seed is None:
            raise ValidationError("monte_carlo mode needs trials= and seed=")
        if trials < 1:
            raise ValidationError(f"trials must be >= 1, got {trials}")
        rng = np.random.default_rng(int(seed))
        tuples = [tuple(int(rng.integers(L)) for L in sizes) for _ in range(trials)]
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
        sigma0 = decoder.block.state_for_words(words)
        sigma = sigma0
        for i in range(s):
            inst = decoder.stage_instrument(i, words[:i])
            root = inst.sqrt_element(msg[i])
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
    and decreasing second rate (as upper_boundary_2d returns them).

    The boundary runs from (0, y_max) through the vertices down to
    (x_max, 0); the point is inside iff it lies under that polyline.
    """
    x, y = point.rates
    pts = [tuple(v.rates) for v in vertices]
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
