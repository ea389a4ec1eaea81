"""Self-tests of the benchmark (not part of the qmac test suite).

    python3 -m pytest bench -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = ["region", "--channel", "qubit-pure-mac", "--sweep", "4", "--format", "json"]


def runner(tmp_path, argv=SMALL, check=lambda text: []):
    return run.Runner(lambda k: (argv, check), str(tmp_path))


def perturb_first_number(doc, delta):
    """Add delta to the first float found in a JSON document, in place."""
    stack = [doc]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, val in items:
            if isinstance(val, float):
                node[key] = val + delta
                return doc
            if isinstance(val, (dict, list)):
                stack.append(val)
    raise AssertionError("no float in document")


@pytest.mark.parametrize("name", ["simulate-chain", "simulate-decoder"])
def test_perturbed_json_output_is_a_mismatch(name):
    ref = workloads.load_reference(name)
    seed = ref["pool"][0]
    text = ref["outputs"][str(seed)]
    ctx = {"seed": 0, "cli_seed": seed}
    assert workloads.verify(name, ctx, text) == []
    near = json.dumps(perturb_first_number(json.loads(text), 5e-10))
    assert workloads.verify(name, ctx, near) == []
    far = json.dumps(perturb_first_number(json.loads(text), 2e-9))
    assert len(workloads.verify(name, ctx, far)) == 1


def test_perturbed_check_text_is_a_mismatch():
    ref = workloads.load_reference("check-suite")
    seed = ref["pool"][0]
    text = ref["outputs"][str(seed)]
    ctx = {"seed": 0, "cli_seed": seed}
    assert workloads.verify("check-suite", ctx, text) == []
    assert workloads.verify("check-suite", ctx, text.replace("pass", "pas", 1))


def test_region_oracle_matches_reference_and_catches_perturbation():
    states = workloads.sweep_channel_states(workloads.DEFAULT_SEED)
    ctx = {"seed": workloads.DEFAULT_SEED, "states": states}
    text = workloads.load_reference("region-sweep")
    assert workloads.verify("region-sweep", ctx, text) == []
    doc = json.loads(text)
    doc["region"][100]["bound_bits"] += 2e-9
    assert len(workloads.verify_sweep(states, doc)) == 1
    # a seed without a stored reference is checked by the oracle alone
    doc["region"][100]["bound_bits"] -= 2e-9
    assert workloads.verify("region-sweep", dict(ctx, seed=1), json.dumps(doc)) == []


def test_perturbed_output_counts_as_failed_run(tmp_path):
    ref = workloads.load_reference("simulate-chain")
    want = ref["outputs"][str(ref["pool"][0])]
    wrong = json.dumps(perturb_first_number(json.loads(want), 1e-6))
    argv = workloads.ARGV["simulate-chain"] + ["--seed", str(ref["pool"][0])]
    r = runner(tmp_path, argv, lambda text: workloads.compare_json(json.loads(wrong),
                                                                   json.loads(text)))
    assert r.run(trace=False) is None
    assert r.attempted == 1 and len(r.problems) == 1
    assert "mismatch" in r.problems[0]


def test_nonzero_exit_counts_as_failed_run(tmp_path):
    r = runner(tmp_path, ["region", "--channel", "no-such-channel"])
    assert r.run(trace=False) is None
    assert len(r.problems) == 1


def test_traced_self_times_within_wall_and_untraced_has_no_wrappers(tmp_path):
    r = runner(tmp_path)
    plain = r.run(trace=False)
    first = r.run(trace=True)
    second = r.run(trace=True)
    assert r.problems == []
    assert plain["wrapped"] == 0
    assert first["wrapped"] > 0
    summary = first["trace"]
    total_self = sum(summary["self_s"].values())
    assert 0.0 < total_self <= summary["wall_s"]
    assert all(v >= -1e-9 for v in summary["self_s"].values())
    metrics = run.layer_metrics(summary)
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["region.priors"] == 25 and metrics["operators.eig_calls"] > 0
    again = run.layer_metrics(second["trace"])
    for m in metrics:
        if run.count_metric(m):
            assert metrics[m] == again[m], m

    dump = tracer.load(str(tmp_path / "run1.json.spans"))
    names, (sname, sparent, sstart, send) = dump["names"], dump["spans"]
    assert names[sname[0]] == "cli.main" and sparent[0] == -1
    for i in range(1, len(sname)):
        p = sparent[i]
        assert p >= 0 and sstart[p] <= sstart[i] <= send[i] <= send[p]


def test_pooled_runs_cycle_through_the_pool(tmp_path):
    pool = workloads.load_reference("check-suite")["pool"]
    seeds = [workloads.make("check-suite", 3, str(tmp_path), k)[1]["cli_seed"]
             for k in range(len(pool) + 1)]
    assert seeds[0] == pool[3] and sorted(seeds[:-1]) == sorted(pool)
    assert seeds[-1] == seeds[0]
