"""Randomized property suites behind the `check` command.

Each suite draws random instances (channels, priors, states, measurements)
from a seeded generator and verifies the inequalities and identities the
library is contractually bound to: dual-path entropy agreement, positivity
and form-agreement of mutual information, subadditivity, the error-entropy
bound, gentle-measurement disturbance bounds, corner telescoping and
membership, relabeling symmetry, mixture affinity.  Failures carry enough
detail (seed, trial index, values) for bit-exact replay.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import coding, entropy as ent, region
from .channel import CqMacChannel, Prior, channel_state, mask_members
from .config import DEFAULT_MAX_CHECK_TRIALS, CapExceeded
from .entropy import SubsystemSelector
from .operators import ValidationError, _as_tolerance, as_index, as_seed

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_povm(rng: np.random.Generator, dim: int, outcomes: int) -> list[np.ndarray]:
    """Random POVM: normalize a family of random PSD operators by their sum."""
    mats = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    w, v = np.linalg.eigh(total)
    inv_root = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_root @ m @ inv_root for m in mats]


def random_prior_vec(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def random_channel(rng: np.random.Generator, max_senders: int = 3,
                   max_alphabet: int = 3, max_output_dim: int = 4) -> CqMacChannel:
    s = int(rng.integers(1, max_senders + 1))
    alphabets = tuple(int(rng.integers(2, max_alphabet + 1)) for _ in range(s))
    d = int(rng.integers(2, max_output_dim + 1))
    states = {
        letters: random_density(rng, d)
        for letters in itertools.product(*(range(a) for a in alphabets))
    }
    return CqMacChannel(alphabets, d, states)


def random_prior(rng: np.random.Generator, ch: CqMacChannel) -> Prior:
    return Prior(tuple(random_prior_vec(rng, a) for a in ch.sender_alphabets))


def relabel_channel(ch: CqMacChannel, perm) -> CqMacChannel:
    """Channel with senders permuted: new sender i is old sender perm[i]."""
    perm = region._check_perm(perm, ch.s)
    return CqMacChannel(tuple(ch.sender_alphabets[p] for p in perm), ch.output_dim,
                        np.transpose(ch.states, perm + (ch.s, ch.s + 1)))


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """Outcome of one randomized suite."""

    name: str
    seed: int
    trials: int
    checks: int = 0
    skipped: int = 0
    counts: Counter = field(default_factory=Counter)
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, trial: int, kind: str, detail: str = "", **values) -> None:
        self.checks += 1
        self.counts[kind] += 1
        if not ok:
            self.failures.append(
                {"suite": self.name, "seed": self.seed, "trial": trial,
                 "check": kind, "detail": detail,
                 **{k: repr(v) for k, v in values.items()}}
            )

    def summary_lines(self) -> list[str]:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} violations)"
        skip = f", {self.skipped} skipped" if self.skipped else ""
        lines = [f"{self.name}: {status} [{self.checks} checks over "
                 f"{self.trials} trials{skip}, seed {self.seed}]"]
        for kind in sorted(self.counts):
            lines.append(f"  {kind}: {self.counts[kind]}")
        return lines


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def entropy_suite(trials: int, seed: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """Dual-path entropies, mutual-information form agreement and positivity,
    and the conditional-entropy difference identity, on random channels."""
    rng = np.random.default_rng(seed)
    res = CheckResult("entropy", seed, trials)
    for t in range(trials):
        ch = random_channel(rng)
        prior = random_prior(rng, ch)
        e = channel_state(ch, prior)
        arity = ch.s
        table = region.prior_tables(ch, [prior])[0].tolist()   # as the region commands read it
        for mask, quantum in itertools.product(range(1 << arity), (0, 1)):
            if not (mask or quantum):
                continue
            block = table[mask][quantum]
            sel = SubsystemSelector.of(mask_members(mask), quantum)
            try:
                dense = ent.subsystem_entropy_dense(e, sel)
            except CapExceeded:
                res.skipped += 1   # only the block path runs above the cap
                continue
            res.record(abs(block - dense) <= tol, t, "dual-path entropy",
                       f"selector {sel.key()}", block=block, dense=dense)
        for mask in range(1, 1 << arity):
            members = mask_members(mask)
            comp = frozenset(range(arity)) - members
            try:
                mi = ent.mutual_information(e, members)
            except ValidationError as exc:
                res.record(False, t, "mutual information forms",
                           f"J mask {mask}", error=str(exc))
                continue
            res.record(mi >= 0.0, t, "mutual information positivity",
                       f"J mask {mask}", value=mi)
            ident = (
                ent.conditional_entropy(
                    e, SubsystemSelector.of((), quantum=True), SubsystemSelector.of(comp))
                - ent.conditional_entropy(
                    e, SubsystemSelector.of((), quantum=True),
                    SubsystemSelector.of(range(arity)))
            )
            res.record(abs(max(ident, 0.0) - mi) <= tol, t,
                       "conditional-entropy difference identity",
                       f"J mask {mask}", identity=ident, mi=mi)
    return res


def lemma_suite(trials: int, seed: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """Subadditivity slack, the error-entropy bound, and the single-operator,
    per-state and averaged gentle-measurement bounds, on random instances."""
    rng = np.random.default_rng(seed)
    res = CheckResult("lemmas", seed, trials)
    for t in range(trials):
        # subadditivity of mutual information across two channels
        a1, a2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        v1 = [random_density(rng, d1) for _ in range(a1)]
        v2 = [random_density(rng, d2) for _ in range(a2)]
        q = rng.dirichlet(np.ones(a1 * a2)).reshape(a1, a2)
        slack = ent.check_subadditivity(v1, v2, q)
        res.record(slack <= tol, t, "subadditivity slack", slack=slack)

        # error-probability entropy bound on a random labeled ensemble
        m = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        e = channel_state(
            CqMacChannel((m,), d, {(x,): random_density(rng, d) for x in range(m)}),
            Prior((random_prior_vec(rng, m),)),
        )
        x_povm = np.stack([random_prior_vec(rng, k) for _ in range(m)], axis=1)
        y_povm = random_povm(rng, d, k)
        lhs, rhs = ent.fano_bound_check(e, x_povm, y_povm)
        res.record(lhs <= rhs + tol, t, "error-entropy bound", lhs=lhs, rhs=rhs)

        # single-operator disturbance bound
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = g @ g.conj().T
        x /= np.linalg.eigvalsh(x)[-1] * (1.0 + float(rng.random()))
        eps_actual = 1.0 - float(np.trace(rho @ x).real)
        if eps_actual >= 1.0 - 1e-12:
            res.skipped += 1
        else:
            eps, lhs, bound = coding.disturbance_check(rho, x)
            res.record(lhs <= bound + tol, t, "disturbance bound",
                       eps=eps, lhs=lhs, bound=bound)

        # per-state and averaged instrument disturbance, against a PGM
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 5))
        states = [(a, random_density(rng, d)) for a in range(k)]
        inst = coding.TenderInstrument.from_povm(coding.pgm_decoder(states))
        weights = random_prior_vec(rng, k)
        check = coding.tender_bound_check(states, inst, weights=weights)
        for a, eps, dist, bound in check.per_state:
            res.record(dist <= bound + tol, t, "per-state instrument disturbance",
                       f"state {a}", eps=eps, dist=dist, bound=bound)
        res.record(check.avg_disturbance <= check.avg_bound + tol, t,
                   "average instrument disturbance", eps_bar=check.eps_bar,
                   dist=check.avg_disturbance, bound=check.avg_bound)
    return res


def region_suite(trials: int, seed: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """Corner telescoping, corner membership, bound-difference agreement,
    relabeling symmetry, and mixture affinity, on random channels."""
    rng = np.random.default_rng(seed)
    res = CheckResult("region", seed, trials)
    for t in range(trials):
        ch = random_channel(rng)
        prior = random_prior(rng, ch)
        cs = region.constraint_set(ch, prior)
        full_mask = (1 << ch.s) - 1
        for perm, point in region.corner_table(ch, prior).items():
            res.record(
                abs(sum(point.rates) - cs.bounds[full_mask]) <= tol, t,
                "corner telescoping", f"perm {perm}",
                total=sum(point.rates), bound=cs.bounds[full_mask])
            res.record(region.is_member(point, cs, tol), t,
                       "corner membership", f"perm {perm}", rates=point.rates)
            alt = region.corner_from_bounds(cs, perm)
            res.record(
                max(abs(a - b) for a, b in zip(point.rates, alt.rates)) <= tol, t,
                "corner bound-difference agreement", f"perm {perm}",
                chain=point.rates, differences=alt.rates)

        # relabeling senders permutes subsets consistently
        perm = tuple(int(i) for i in rng.permutation(ch.s))
        relabeled = relabel_channel(ch, perm)
        re_prior = Prior(tuple(prior.per_sender[p] for p in perm))
        cs2 = region.constraint_set(relabeled, re_prior)
        for mask in cs2.bounds:
            members = mask_members(mask)
            old_mask = sum(1 << perm[i] for i in members)
            res.record(abs(cs2.bounds[mask] - cs.bounds[old_mask]) <= tol, t,
                       "relabel symmetry", f"mask {mask}",
                       relabeled=cs2.bounds[mask], original=cs.bounds[old_mask])

        # mixture bounds are affine in the weights
        other = random_prior(rng, ch)
        cs_other = region.constraint_set(ch, other)
        for w in (0.0, 1.0, 0.3):
            mixed = region.mixture_constraints(
                ch, region.MixtureSpec(((w, prior), (1.0 - w, other))))
            for mask in mixed.bounds:
                want = w * cs.bounds[mask] + (1.0 - w) * cs_other.bounds[mask]
                res.record(abs(mixed.bounds[mask] - want) <= tol, t,
                           "mixture affinity", f"w={w} mask {mask}",
                           got=mixed.bounds[mask], want=want)
    return res


SUITES = {
    "entropy": entropy_suite,
    "lemmas": lemma_suite,
    "region": region_suite,
}


def run_suites(which: str, trials: int, seed: int,
               tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """The named suite, or every suite ("all"), each over `trials` random
    instances drawn from `seed`."""
    trials, seed = as_index(trials, "trials"), as_seed(seed, "seed")
    tol = _as_tolerance(tol)
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ValidationError(f"unknown suite {which!r}; choose from "
                              f"{sorted(SUITES)} or 'all'")
    if trials > DEFAULT_MAX_CHECK_TRIALS:
        raise CapExceeded(f"check needs {trials} trials per suite, "
                          f"cap is {DEFAULT_MAX_CHECK_TRIALS}")
    return [SUITES[name](trials, seed, tol) for name in names]
