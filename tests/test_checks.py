import itertools
import pathlib
from collections import Counter

import numpy as np
import pytest

from qmac import channel
from qmac import entropy as ent
from qmac.channel import CqMacChannel, Prior
from qmac.cli import main
from qmac.checks import (CheckResult, entropy_suite, random_channel,
                         random_density, random_povm, relabel_channel,
                         run_suites)
from qmac.operators import ValidationError, check_povm
from qmac.region import constraint_set


def test_random_density_is_density():
    rng = np.random.default_rng(61)
    for d in (2, 3, 5):
        rho = random_density(rng, d)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_random_povm_is_povm():
    rng = np.random.default_rng(62)
    check_povm(random_povm(rng, 4, 3))


def test_relabel_channel_swaps_bounds():
    rng = np.random.default_rng(63)
    ch = random_channel(rng, max_senders=2)
    while ch.s != 2:
        ch = random_channel(rng, max_senders=2)
    prior = Prior.uniform(ch.sender_alphabets)
    swapped = relabel_channel(ch, (1, 0))
    p2 = Prior(tuple(reversed(prior.per_sender)))
    cs = constraint_set(ch, prior)
    cs2 = constraint_set(swapped, p2)
    assert abs(cs.bounds[1] - cs2.bounds[2]) < 1e-9
    assert abs(cs.bounds[2] - cs2.bounds[1]) < 1e-9
    assert abs(cs.bounds[3] - cs2.bounds[3]) < 1e-9


def test_relabel_channel_transposes_the_table():
    rng = np.random.default_rng(64)
    letters = itertools.product(range(2), range(3), range(2))
    ch = CqMacChannel((2, 3, 2), 2, {x: random_density(rng, 2) for x in letters})
    relabeled = relabel_channel(ch, (2, 0, 1))     # new sender i is old sender perm[i]
    assert relabeled.sender_alphabets == (2, 2, 3)
    for x in ch.joint_letters():
        assert np.array_equal(relabeled.state((x[2], x[0], x[1])), ch.state(x))


def test_suites_pass_at_small_trials():
    for res in run_suites("all", 8, 777):
        assert res.passed, res.failures[:2]
        assert res.checks > 0


def test_zero_trials_vacuous():
    res = entropy_suite(0, 1)
    assert res.passed and res.checks == 0


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        run_suites("bogus", 1, 1)


def test_negative_trials_rejected():
    # not a vacuous pass over -1 trials
    for which in ("all", "entropy"):
        with pytest.raises(ValidationError, match=r"^trials must be >= 0, got -1$"):
            run_suites(which, -1, 0)


def test_check_result_records_failures():
    res = CheckResult("demo", seed=5, trials=1)
    res.record(True, 0, "ok-kind")
    res.record(False, 0, "bad-kind", "context", value=1.23)
    assert not res.passed
    assert res.checks == 2
    assert res.counts["bad-kind"] == 1
    failure = res.failures[0]
    assert failure["seed"] == 5 and failure["check"] == "bad-kind"
    lines = res.summary_lines()
    assert any("FAIL" in line for line in lines)
    assert any("ok-kind" in line for line in lines)


def test_entropy_suite_restricts_each_block_once(monkeypatch):
    real = ent.restrict
    calls = []

    def counting(e, sel):
        calls.append((e, sel))    # holding e keeps its id from being reused
        return real(e, sel)

    monkeypatch.setattr(ent, "restrict", counting)
    assert entropy_suite(30, 0).passed
    pairs = Counter((id(e), sel) for e, sel in calls)
    assert pairs and max(pairs.values()) == 1


def test_dense_oracle_expands_each_ensemble_once(monkeypatch):
    # the dense oracle partial-traces per selector, from one block-diagonal
    # matrix per ensemble
    real, require = ent.subsystem_entropy_dense, channel.require_dim
    ensembles, expanded = [], []

    def oracle(e, sel):
        ensembles.append(e)    # holding e keeps its id from being reused
        return real(e, sel)

    def counting(dim, what="matrix"):
        expanded.append(what)
        return require(dim, what=what)

    monkeypatch.setattr(ent, "subsystem_entropy_dense", oracle)
    monkeypatch.setattr(channel, "require_dim", counting)
    assert entropy_suite(30, 10).passed
    distinct = len({id(e) for e in ensembles})
    assert len(ensembles) > distinct == expanded.count("dense ensemble expansion")


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [0, 1, 10])
def test_check_all_output_equals_the_stored_text(capsys, seed):
    # the stored stdout of `qmac check --suite all --trials 30` at the seed
    want = (GOLDEN / f"check-all-trials-30-seed-{seed}.txt").read_text(encoding="utf-8")
    code = main(["check", "--suite", "all", "--trials", "30", "--seed", str(seed)])
    assert (code, capsys.readouterr().out) == (0, want)
