import json
import pathlib
import threading
import time
import warnings

import numpy as np
import pytest

from qmac import checks, cli, coding, config, entropy, region
from qmac.channel import CqMacChannel, Prior, load_channel
from qmac.checks import random_density
from qmac.cli import main
from qmac.operators import ValidationError
from qmac.region import MixtureSpec

from oracles import bundled_channel_json, region_report, save_channel, sweep_loop


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = pathlib.Path(__file__).parent / "golden"


# --- validate -------------------------------------------------------------------

def test_validate_builtin_ok(capsys):
    code, out, _ = run(capsys, "validate", "--channel", "adder-classical")
    assert code == 0
    assert out.startswith("ok:")


def test_validate_missing_tuple_exit_1(tmp_path, capsys):
    raw = bundled_channel_json("adder-classical")
    del raw["classical"]["1,0"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "validate", "--channel", str(path))
    assert code == 1
    assert "missing state (1, 0)" in out


def test_validate_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--channel", str(path))
    assert code == 2


def test_validate_unknown_field_exit_2(tmp_path, capsys):
    raw = bundled_channel_json("adder-classical")
    raw["extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, "validate", "--channel", str(path))
    assert code == 2
    assert "unknown top-level fields" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "validate", "--channel", "nowhere.json")
    assert code == 2


# --- region ---------------------------------------------------------------------

def test_region_nan_prior_exit_1(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "region", "--channel", "adder-classical",
                             "--prior", "nan,0.5;0.5,0.5")
    assert code == 1
    assert out == ""
    assert not caught
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: prior for sender 0")
    assert "non-finite" in lines[0]


def test_region_adder_csv(capsys):
    code, out, _ = run(capsys, "region", "--channel", "adder-classical", "--corners")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "prior_id,subset_mask,bound_bits"
    assert "0,1,1" in lines
    assert "0,2,1" in lines
    assert "0,3,1.5" in lines
    assert "0,1-2,0.5,1" in lines
    assert "0,2-1,1,0.5" in lines


def test_region_holevo_json(capsys):
    code, out, _ = run(capsys, "region", "--channel", "holevo-two-state",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["region"][0]["bound_bits"] - 0.6008760366928562) < 1e-9


def test_region_explicit_prior(capsys):
    code, out, _ = run(capsys, "region", "--channel", "adder-classical",
                       "--prior", "1,0;0.5,0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    bounds = {row["subset_mask"]: row["bound_bits"] for row in doc["region"]}
    assert abs(bounds[1]) < 1e-9          # sender 1 pinned at letter 0
    assert abs(bounds[2] - 1.0) < 1e-9


def test_region_mixture_single_component_matches_plain(capsys):
    code, plain, _ = run(capsys, "region", "--channel", "adder-classical", "--corners")
    code2, mixed, _ = run(capsys, "region", "--channel", "adder-classical",
                          "--corners", "--mixture", "1.0*uniform")
    assert code == code2 == 0
    plain_vals = [line.split(",", 1)[1] for line in plain.splitlines() if line]
    mixed_vals = [line.split(",", 1)[1] for line in mixed.splitlines() if line]
    assert plain_vals == mixed_vals  # same numbers, different prior_id column


def test_region_mixture_two_components(capsys):
    code, out, _ = run(capsys, "region", "--channel", "adder-classical",
                       "--mixture", "0.5*uniform+0.5*1,0;1,0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    bounds = {row["subset_mask"]: row["bound_bits"] for row in doc["region"]}
    # point-mass component contributes zero to every bound
    assert abs(bounds[3] - 0.75) < 1e-9


def eight_sender_channel(tmp_path) -> str:
    """A channel file of 8 one-letter senders: 40320 decode orders."""
    path = tmp_path / "eight.json"
    save_channel(CqMacChannel((1,) * 8, 2, {(0,) * 8: np.eye(2) / 2}), path)
    return str(path)


@pytest.mark.parametrize("mode", [["--prior", "uniform"], ["--mixture", "1*uniform"]])
def test_region_bounds_past_the_corner_cap(tmp_path, capsys, mode):
    # without --corners no decode order is needed: all 255 bounds are written
    code, out, err = run(capsys, "region", "--channel", eight_sender_channel(tmp_path), *mode)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "prior_id,subset_mask,bound_bits"
    assert [line.split(",")[1:] for line in lines[1:]] == [[str(m), "0"] for m in range(1, 256)]


@pytest.mark.parametrize("mode", [["--prior", "uniform"], ["--mixture", "1*uniform"]])
def test_region_corners_refused_past_the_sender_cap(tmp_path, capsys, mode):
    # 40320 decode orders, refused before any is formed
    path = eight_sender_channel(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, "region", "--channel", path, *mode, "--corners")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: corner enumeration needs 40320 permutations "
                                "for s=8, configured cap is s<=6"]


def test_region_sweep_json(capsys):
    code, out, _ = run(capsys, "region", "--channel", "qubit-pure-mac",
                       "--sweep", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["priors"]) == 9  # 3 grid points per binary sender
    assert "corners" in doc and "hull" in doc


def test_region_sweep_accepts_resolution_object(capsys):
    code, plain, _ = run(capsys, "region", "--channel", "holevo-two-state",
                         "--sweep", "4")
    code2, spec, _ = run(capsys, "region", "--channel", "holevo-two-state",
                         "--sweep", '{"resolution": 4}')
    assert code == code2 == 0
    assert plain == spec


@pytest.mark.parametrize("spec", ["1e3", "[3]", '"3"', "true", "[" * 5000 + "]" * 5000,
                                  "[" + "1" * 5000 + "]"],
                         ids=["float", "list", "string", "bool", "nested-past-the-recursion-limit",
                              "digits-past-the-int-limit"])
def test_sweep_json_other_than_an_object_is_named_as_such(capsys, spec):
    # where Python limits int digits, json.loads fails the long number with a plain ValueError
    code, out, err = run(capsys, "region", "--channel", "holevo-two-state", "--sweep", spec)
    assert code == 2 and not out
    assert err.splitlines() == [f"error: grid spec must be an integer or JSON object, "
                                f"got {spec!r}"]


def test_region_csv_files(tmp_path, capsys):
    out_path = tmp_path / "region.csv"
    code, _, _ = run(capsys, "region", "--channel", "adder-classical",
                     "--corners", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("prior_id,subset_mask,bound_bits")
    corners_path = tmp_path / "region.corners.csv"
    assert corners_path.exists()
    assert corners_path.read_text().startswith("prior_id,perm,R_1,R_2")


def test_region_negative_tolerance_exit_2(capsys):
    code, _, err = run(capsys, "region", "--channel", "adder-classical",
                       "--tol=-1e-9")
    assert code == 2
    assert "tolerance" in err


# --- region writer against the per-prior report ---------------------------------

def region_channel(name, tmp_path):
    """CLI argument and loaded channel: a builtin name, or a channel file of
    a random 3-sender channel or of a product channel (each sender steers
    its own qubit), whose mixture corners can all fail membership at a
    tolerance of 5e-324."""
    if name in ("adder-classical", "qubit-pure-mac", "holevo-two-state"):
        return name, load_channel(name)
    rng = np.random.default_rng(5)
    if name == "product":
        r1, r2 = ([random_density(rng, 2) for _ in range(2)] for _ in range(2))
        ch = CqMacChannel((2, 2), 4, {(a, b): np.kron(r1[a], r2[b])
                                      for a in range(2) for b in range(2)})
    else:
        letters = [(a, b, c) for a in range(2) for b in range(3) for c in range(2)]
        ch = CqMacChannel((2, 3, 2), 3, {x: random_density(rng, 3) for x in letters})
    path = tmp_path / f"{name}.json"
    save_channel(ch, path)
    return str(path), load_channel(path)


UNIFORM = Prior.uniform((2, 2))
SKEWED = Prior((np.array([0.3, 0.7]), np.array([1.0, 0.0])))
REGION_CASES = [
    *[(name, ["--sweep", str(k)], {"resolution": k})
      for name in ("adder-classical", "qubit-pure-mac", "holevo-two-state") for k in (1, 2, 3, 4)],
    ("random-3-sender", ["--sweep", "2"], {"resolution": 2}),
    ("qubit-pure-mac", [], {"prior": UNIFORM}),
    ("qubit-pure-mac", ["--corners"], {"prior": UNIFORM, "corners": True}),
    ("adder-classical", ["--prior", "0.3,0.7;1,0", "--corners"], {"prior": SKEWED, "corners": True}),
    ("random-3-sender", ["--corners"], {"prior": Prior.uniform((2, 3, 2)), "corners": True}),
    ("qubit-pure-mac", ["--mixture", "0.5*uniform+0.5*0.3,0.7;1,0"],
     {"mixture": MixtureSpec(((0.5, UNIFORM), (0.5, SKEWED)))}),
    ("qubit-pure-mac", ["--mixture", "0.5*uniform+0.5*0.3,0.7;1,0", "--corners"],
     {"mixture": MixtureSpec(((0.5, UNIFORM), (0.5, SKEWED))), "corners": True}),
    ("random-3-sender", ["--mixture", "0.5*uniform+0.5*0.2,0.8;0.1,0.3,0.6;1,0", "--corners"],
     {"mixture": MixtureSpec(((0.5, Prior.uniform((2, 3, 2))),
                              (0.5, Prior((np.array([0.2, 0.8]), np.array([0.1, 0.3, 0.6]),
                                           np.array([1.0, 0.0])))))),
      "corners": True}),
    ("qubit-pure-mac", ["--mixture", "0.4*uniform+0.3*1,0;0,1+0.3*0,1;1,0", "--corners"],
     {"mixture": MixtureSpec(((0.4, UNIFORM), (0.3, Prior((np.array([1.0, 0.0]),
                                                            np.array([0.0, 1.0])))),
                              (0.3, Prior((np.array([0.0, 1.0]), np.array([1.0, 0.0])))))),
      "corners": True}),
    ("product", ["--mixture", "1*0.1,0.9;0.5,0.5", "--corners", "--tol", "5e-324"],
     {"mixture": MixtureSpec(((1.0, Prior((np.array([0.1, 0.9]), np.array([0.5, 0.5])))),)),
      "corners": True, "tol": 5e-324}),
]
REGION_IDS = ["-".join([name] + argv).replace("--", "") for name, argv, _ in REGION_CASES]


@pytest.mark.parametrize("name, argv, report", REGION_CASES, ids=REGION_IDS)
def test_region_json_is_json_dumps_of_the_per_prior_report(tmp_path, capsys, name, argv, report):
    channel, ch = region_channel(name, tmp_path)
    code, out, err = run(capsys, "region", "--channel", channel, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    doc, _, _ = region_report(ch, **report)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if name == "product":
        assert doc["corners"] == [] and '"corners": [],' in out


@pytest.mark.parametrize("name, argv, report", REGION_CASES, ids=REGION_IDS)
def test_region_csv_equals_the_per_prior_report(tmp_path, capsys, name, argv, report):
    channel, ch = region_channel(name, tmp_path)
    _, region_text, corners_text = region_report(ch, **report)
    code, out, err = run(capsys, "region", "--channel", channel, *argv)
    assert (code, err) == (0, "")
    assert out == (region_text if corners_text is None else region_text + "\n" + corners_text)
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, "region", "--channel", channel, *argv, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_text(encoding="utf-8") == region_text
    sidecar = tmp_path / "out.corners.csv"
    assert sidecar.exists() == (corners_text is not None)
    if corners_text is not None:
        assert sidecar.read_text(encoding="utf-8") == corners_text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_region_corners_of_one_prior_compute_one_entropy_table(monkeypatch, capsys, fmt):
    # the bounds and the corners read one table; the output stays the one
    # the per-prior report gives (test_region_*_per_prior_report)
    tables, calls = entropy.entropy_tables, []

    def counted(*args):
        calls.append(1)
        return tables(*args)

    monkeypatch.setattr(entropy, "entropy_tables", counted)
    code, out, err = run(capsys, "region", "--channel", "qubit-pure-mac", "--corners",
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert len(calls) == 1


@pytest.mark.parametrize("entry, delta, context", [
    ((1, 1), 1.0, "corner stage for sender 0"),   # H(X_1 Y) up: only a corner stage drops
    ((0, 1), -1.0, "bound for mask 3"),           # H(Y) down: the full-set bound drops first
])
def test_injected_negative_information_raises_before_any_output(
        monkeypatch, tmp_path, capsys, entry, delta, context):
    entropy_tables = entropy.entropy_tables

    def broken(factors, states):
        table = entropy_tables(factors, states)
        if len(table) > 5:
            table[(5,) + entry] += delta
        return table

    monkeypatch.setattr(entropy, "entropy_tables", broken)
    with pytest.raises(ValidationError) as want:
        sweep_loop(load_channel("qubit-pure-mac"), 3)
    assert str(want.value).startswith(context + ": mutual information -")
    assert str(want.value).endswith(" below -1e-9")
    for extra in ([], ["--format", "json"], ["--out", str(tmp_path / "out.csv")]):
        code, out, err = run(capsys, "region", "--channel", "qubit-pure-mac", "--sweep", "3",
                             *extra)
        assert (code, out, err) == (1, "", f"error: {want.value}\n")
    assert list(tmp_path.iterdir()) == []


# --- simulate --------------------------------------------------------------------

def test_simulate_orthogonal_noiseless_zero_error(tmp_path, capsys):
    # orthogonal product-basis channel: exact decoding at n=1
    raw = {
        "senders": [{"alphabet": 2}, {"alphabet": 2}],
        "output_dim": 4,
        "classical": {
            "0,0": [1, 0, 0, 0], "0,1": [0, 1, 0, 0],
            "1,0": [0, 0, 1, 0], "1,1": [0, 0, 0, 1],
        },
    }
    path = tmp_path / "orth.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "simulate", "--channel", str(path), "--n", "1",
                       "--sizes", "2,2", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["avg_error"] <= 1e-12


def test_simulate_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "--channel", "qubit-pure-mac", "--n", "2",
            "--sizes", "2,2", "--seed", "77", "--mode", "mc", "--trials", "25"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_repeated_codewords_output_equals_the_stored_text(capsys):
    # the stored stdout of `qmac simulate --channel qubit-pure-mac --n 4
    # --sizes 32,32 --seed 0`, whose codebooks hold at most 16 distinct words
    # of 32, so that messages share elements and roots
    want = (GOLDEN / "simulate-qubit-pure-mac-n-4-sizes-32-32-seed-0.txt").read_text(
        encoding="utf-8")
    code, out, _ = run(capsys, "simulate", "--channel", "qubit-pure-mac", "--n", "4",
                       "--sizes", "32,32", "--seed", "0")
    assert (code, out) == (0, want)


@pytest.mark.parametrize("argv, name", [
    (("--channel", "qubit-pure-mac", "--sweep", "8", "--format", "json"),
     "region-qubit-pure-mac-sweep-8.json"),
    (("--channel", "adder-classical", "--sweep", "6", "--corners"),
     "region-adder-classical-sweep-6-corners.csv"),
], ids=["hull-json", "corners-csv"])
def test_region_sweep_output_equals_the_stored_text(capsys, argv, name):
    # the stored stdout of `qmac region` with these arguments, made while the
    # hull still took RatePoint lists; `oracles.region_report` calls the same
    # hull routine, so only stored bytes would show a changed vertex
    want = (GOLDEN / name).read_text(encoding="utf-8")
    code, out, _ = run(capsys, "region", *argv)
    assert (code, out) == (0, want)


@pytest.mark.parametrize("argv, name", [
    (("--channel", "qubit-pure-mac", "--mixture", "0.4*uniform+0.3*1,0;0,1+0.3*0,1;1,0",
      "--corners", "--format", "json"), "region-qubit-pure-mac-mixture-3-corners.json"),
    (("--channel", "adder-classical", "--mixture", "0.5*uniform+0.5*1,0;0,1", "--corners"),
     "region-adder-classical-mixture-2-corners.csv"),
], ids=["three-components-json", "two-components-csv"])
def test_region_mixture_output_equals_the_stored_text(capsys, argv, name):
    # the stored stdout of `qmac region` with these arguments;
    # `oracles.region_report` calls the same MixtureSpec and
    # mixture_constraints as the command, so only stored bytes would show a
    # changed weight, bound or corner
    want = (GOLDEN / name).read_text(encoding="utf-8")
    code, out, _ = run(capsys, "region", *argv)
    assert (code, out) == (0, want)


def test_simulate_repeated_tuples_monte_carlo_output_equals_the_stored_text(capsys):
    # the stored stdout of `qmac simulate --channel qubit-pure-mac --n 2
    # --sizes 8,8 --mode mc --trials 200 --seed 3`, made by the simulator that
    # ran every drawn tuple: its 200 tuples hold few distinct word pairs, and
    # each tuple's values are still added in draw order
    want = (GOLDEN / "simulate-qubit-pure-mac-n-2-sizes-8-8-mc-trials-200-seed-3.txt").read_text(
        encoding="utf-8")
    code, out, _ = run(capsys, "simulate", "--channel", "qubit-pure-mac", "--n", "2",
                       "--sizes", "8,8", "--mode", "mc", "--trials", "200", "--seed", "3")
    assert (code, out) == (0, want)


def test_simulate_decoder_task_error_is_one_line(monkeypatch, capsys):
    # at 64 x 64 blocks the decoder can be built by tasks on a thread pool;
    # a failed build still ends the command with exit 1 and one line
    threads = threading.active_count()
    build, builds = coding.pgm_decoder, []

    def failing_build(*args, **kwargs):
        builds.append(1)
        if len(builds) == 2:
            raise ValidationError("PGM state 0 has negative eigenvalue -1.000e-03\nsecond line")
        return build(*args, **kwargs)

    monkeypatch.setattr(coding, "_workers", lambda dim: 2)
    monkeypatch.setattr(coding, "pgm_decoder", failing_build)
    code, out, err = run(capsys, "simulate", "--channel", "qubit-pure-mac", "--n", "6",
                         "--sizes", "3,3", "--seed", "5")
    assert (code, out) == (1, "")
    assert err == "error: PGM state 0 has negative eigenvalue -1.000e-03; second line\n"
    assert threading.active_count() == threads


def test_simulate_rates_and_delta(capsys):
    code, out, _ = run(capsys, "simulate", "--channel", "qubit-pure-mac",
                       "--n", "2", "--rates", "0.5,0.5", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["sizes"] == [2, 2]


def test_simulate_requires_seed(capsys):
    code, _, _ = run(capsys, "simulate", "--channel", "qubit-pure-mac",
                     "--n", "1", "--sizes", "2,2")
    assert code == 2


def test_simulate_sizes_xor_rates(capsys):
    code, _, err = run(capsys, "simulate", "--channel", "qubit-pure-mac",
                       "--n", "1", "--sizes", "2,2", "--rates", "0.5,0.5",
                       "--seed", "1")
    assert code == 2


def test_simulate_cap_exceeded_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("QMAC_MAX_DIM", "64")
    code, _, err = run(capsys, "simulate", "--channel", "qubit-pure-mac",
                       "--n", "8", "--sizes", "2,2", "--seed", "1")
    assert code == 1
    assert "cap" in err


def test_monte_carlo_trials_capped_at_the_tuple_cap(capsys):
    argv = ["simulate", "--channel", "qubit-pure-mac", "--n", "1", "--sizes", "2,2",
            "--seed", "0", "--mode", "mc", "--format", "csv"]
    code, out, _ = run(capsys, *argv, "--trials", "4096")
    assert code == 0 and out
    code, out, err = run(capsys, *argv, "--trials", "4097")
    assert (code, out) == (1, "")
    assert err == "error: Monte Carlo decoding needs 4097 message tuples, cap is 4096\n"


def test_check_trials_capped(capsys, monkeypatch):
    code, out, err = run(capsys, "check", "--trials", "10001", "--seed", "0")
    assert (code, out) == (1, "")
    assert err == "error: check needs 10001 trials per suite, cap is 10000\n"
    monkeypatch.setattr(checks, "DEFAULT_MAX_CHECK_TRIALS", 2)   # both edges, cheaply
    assert run(capsys, "check", "--suite", "region", "--trials", "2", "--seed", "0")[0] == 0
    assert run(capsys, "check", "--suite", "region", "--trials", "3", "--seed", "0")[0] == 1


def test_simulate_block_length_capped_on_one_dimensional_output(tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"senders": [{"alphabet": 2}], "output_dim": 1,
                                "classical": {"0": [1.0], "1": [1.0]}}))
    for n in (10 ** 5, 10 ** 18):
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--channel", str(path), "--n", str(n),
                             "--sizes", "2", "--seed", "0")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (f"error: {n}-block output state needs dimension 1^{n}, "
                       "configured cap is 4096\n")
    code, out, _ = run(capsys, "simulate", "--channel", str(path), "--n", "3",
                       "--sizes", "2", "--seed", "0")
    assert code == 0 and json.loads(out)["n"] == 3


def test_simulate_mc_zero_trials_exit_1(capsys):
    code, out, err = run(capsys, "simulate", "--channel", "qubit-pure-mac",
                         "--n", "2", "--sizes", "2,2", "--seed", "5",
                         "--mode", "mc", "--trials", "0")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: trials must be >= 1, got 0"]


def test_simulate_csv_format(capsys):
    code, out, _ = run(capsys, "simulate", "--channel", "qubit-pure-mac",
                       "--n", "2", "--sizes", "2,2", "--seed", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,L1,L2,avg_error,stage_error_1,stage_error_2"
    assert len(lines) == 2


# --- check -----------------------------------------------------------------------

def test_check_zero_trials_vacuous_pass(capsys):
    code, out, _ = run(capsys, "check", "--suite", "all", "--trials", "0",
                       "--seed", "1")
    assert code == 0
    assert "pass" in out


def test_check_small_run_passes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "lemmas", "--trials", "5",
                       "--seed", "42")
    assert code == 0
    assert "lemmas: pass" in out


def test_check_negative_tolerance_exit_2(capsys):
    code, _, err = run(capsys, "check", "--suite", "entropy", "--trials", "1",
                       "--seed", "1", "--tol=-1")
    assert code == 2
    assert "tolerance" in err


def test_check_negative_trials_exit_2(capsys):
    code, _, err = run(capsys, "check", "--suite", "entropy", "--trials=-5",
                       "--seed", "1")
    assert code == 2
    assert "trials" in err


# --- inputs rejected where they enter ------------------------------------------------

SIM = ["simulate", "--channel", "adder-classical", "--n", "2"]
REGION = ["region", "--channel", "adder-classical"]
CHECK = ["check", "--suite", "entropy", "--trials", "1"]


@pytest.mark.parametrize("env, argv, want", [
    ({"QMAC_MAX_DIM": "abc"}, SIM + ["--sizes", "2,2", "--seed", "0"], 2),
    ({"QMAC_MAX_DIM": "0"}, SIM + ["--sizes", "2,2", "--seed", "0"], 2),
    ({}, SIM + ["--rates", "1e6,1", "--seed", "0"], 1),
    ({}, SIM + ["--rates", "inf,0.3", "--seed", "0"], 2),
    ({}, SIM + ["--rates", "nan,0.1", "--seed", "0"], 2),
    ({}, SIM + ["--rates", "0.3,0.3", "--delta", "nan", "--seed", "0"], 2),
    ({}, SIM + ["--sizes", "2,2", "--seed", "-1"], 2),
    ({}, CHECK + ["--seed", "-1"], 2),
    ({}, REGION + ["--sweep", '{"resolution": "x"}'], 2),
    ({}, REGION + ["--sweep", '{"resolution": 1.5}'], 2),
    ({}, REGION + ["--mixture", "nan*uniform+1*uniform"], 1),
    ({}, REGION + ["--tol", "nan"], 2),
    ({}, CHECK + ["--seed", "1", "--tol", "nan"], 2),
    ({}, CHECK + ["--seed", "3", "--tol", "1e-300", "--max-reported=-1"], 2),
    ({}, SIM + ["--rates=-1,0.5", "--seed", "1"], 2),
    ({}, REGION + ["--sweep", "1", "--mixture", "0.5*uniform+0.5*1,0;0,1"], 2),
    ({}, REGION + ["--prior", "uniform", "--sweep", "1"], 2),
    ({}, REGION + ["--prior", "uniform", "--mixture", "1*uniform"], 2),
    ({}, SIM + ["--sizes", "2,2", "--delta", "5", "--seed", "0"], 2),
    ({}, SIM + ["--sizes", "2,2", "--trials", "5", "--seed", "0"], 2),
    ({}, REGION + ["--sweep", "8", "--tol", "0.5"], 2),
    ({}, REGION + ["--mixture", "1*uniform", "--tol", "0.5"], 2),
    ({}, REGION + ["--corners", "--tol", "0.5"], 2),
])
def test_bad_input_one_error_line(monkeypatch, capsys, env, argv, want):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *argv)
    assert code == want
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err and "nan" not in out


@pytest.mark.parametrize("argv", [SIM + ["--sizes", "2,2"], CHECK])
def test_seed_range_is_the_64_bit_range(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", str(2 ** 64 - 1))
    assert code == 0 and out and "error" not in err
    for seed in (2 ** 64, -1, 99999999999999999999999):
        code, out, err = run(capsys, *argv, "--seed", str(seed))
        assert code == 2 and not out
        assert err.splitlines() == [f"error: seed must be an integer from 0 to 2^64 - 1, "
                                    f"got {seed}"]


def test_negative_rates_rejected_zero_rate_kept(capsys):
    code, out, err = run(capsys, *SIM, "--rates=0.5,-0.01", "--seed", "1")
    assert code == 2 and not out
    assert err.splitlines() == ["error: --rates must be nonnegative, got '0.5,-0.01'"]
    code, out, _ = run(capsys, *SIM, "--rates", "0,0.5", "--seed", "1")
    assert code == 0 and json.loads(out)["sizes"] == [1, 2]


def test_mixture_over_the_component_cap_exit_1(monkeypatch, capsys):
    tables = []
    monkeypatch.setattr(region, "DEFAULT_MAX_GRID_POINTS", 2)
    monkeypatch.setattr(entropy, "entropy_tables", lambda *args: tables.append(args))
    code, out, err = run(capsys, *REGION, "--mixture", "0.4*uniform+0.3*1,0;0,1+0.3*0,1;1,0")
    assert (code, out, tables) == (1, "", [])
    assert err.splitlines() == ["error: mixture has 3 components, configured cap is 2"]


def test_mixture_components_counted_before_any_prior_is_parsed(monkeypatch, capsys):
    parsed = []
    parse_prior = cli._parse_prior
    monkeypatch.setattr(cli, "_parse_prior",
                        lambda *args: parsed.append(args) or parse_prior(*args))
    count = config.DEFAULT_MAX_GRID_POINTS + 1
    code, out, err = run(capsys, *REGION, "--mixture", "+".join(["1e-5*uniform"] * count))
    assert (code, out, parsed) == (1, "", [])
    assert err.splitlines() == [f"error: mixture has {count} components, "
                                f"configured cap is {count - 1}"]


def one_letter_doc(**fields):
    doc = {"senders": [{"alphabet": 1}], "output_dim": 1, "classical": {"0": [1]}}
    doc.update(fields)
    if "states" in fields:
        del doc["classical"]
    return doc


@pytest.mark.parametrize("doc", [
    one_letter_doc(states={"0": "abc"}),
    one_letter_doc(output_dim=2, states={"0": [[[1, 0], [0, 0]], [[0, 0]]]}),
    one_letter_doc(classical={"0": ["x"]}),
    one_letter_doc(classical={"0": {"a": 1}}),
    one_letter_doc(senders=[{"alphabet": True}], output_dim=True),
], ids=["string-matrix", "ragged-matrix", "string-row", "object-row", "boolean-sizes"])
@pytest.mark.parametrize("command", ["validate", "region"])
def test_malformed_channel_document_exit_2(tmp_path, capsys, doc, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--channel", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["validate", "region"])
def test_oversized_declared_table_rejected_before_enumeration(tmp_path, capsys, command):
    # 100 bytes declaring 9 million letter tuples: one cap line, not one
    # "missing state" line per tuple
    doc = {"senders": [{"alphabet": 3000}, {"alphabet": 3000}], "output_dim": 2,
           "classical": {"0,0": [1, 0]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--channel", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: channel table needs 9000000 letter tuples, "
                                "configured cap is 4096"]


def test_every_violation_on_one_error_line(tmp_path, capsys):
    raw = bundled_channel_json("adder-classical")
    del raw["classical"]["1,0"]
    raw["classical"]["0,1"] = [0.5, 0.6, 0.0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "region", "--channel", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: state (0, 1) has trace 1.1, expected 1; "
                                "missing state (1, 0)"]


# --- misc ------------------------------------------------------------------------

def test_no_command_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_region_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["region", "--channel", "qubit-pure-mac", "--sweep", "3",
            "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
