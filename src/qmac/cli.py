"""Command-line front end.

Subcommands mirror the library modules one to one:

- ``validate``: parse a channel file, report every invariant violation.
- ``region``: constraint sets, corners, mixtures and prior sweeps as CSV/JSON.
- ``simulate``: random-codebook sequential decoding with exact error accounting.
- ``check``: the randomized verification suites.

Exit codes: 0 success, 1 domain failure (validation error, violated
inequality, exceeded cap), 2 usage or I/O error.  All output is
deterministic given the inputs and seeds; JSON reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterator, TextIO

import numpy as np

from . import __version__
from .channel import ChannelFormatError, Prior, load_channel
from .coding import run_simulation, sizes_from_rates
from .config import CapExceeded, UsageError, chunks
from .checks import run_suites
from .operators import ValidationError, as_seed
from .region import (MixtureSpec, boundary_sweep, check_mixture_size,
                     constraint_set, member_corners, mixture_constraints, prior_tables,
                     table_corners, upper_boundary_2d)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_prior(spec: str | None, alphabets: tuple[int, ...]) -> Prior:
    if spec is None or spec == "uniform":
        return Prior.uniform(alphabets)
    parts = spec.split(";")
    if len(parts) != len(alphabets):
        raise UsageError(
            f"prior spec has {len(parts)} sender blocks, channel has {len(alphabets)}"
        )
    vecs = []
    for i, part in enumerate(parts):
        try:
            vec = np.array([float(x) for x in part.split(",")])
        except ValueError:
            raise UsageError(f"prior block {i + 1} is not a comma-joined float list: {part!r}")
        if vec.size != alphabets[i]:
            raise UsageError(
                f"prior block {i + 1} has {vec.size} entries, alphabet size is {alphabets[i]}"
            )
        vecs.append(vec)
    return Prior(tuple(vecs))


def _parse_mixture(spec: str, alphabets: tuple[int, ...]) -> MixtureSpec:
    """Mixture syntax: 'w*PRIOR+w*PRIOR', e.g. '0.5*uniform+0.5*1,0;0,1'.
    The components are counted against the cap before any is parsed."""
    parts = spec.split("+")
    check_mixture_size(len(parts))
    components = []
    for chunk in parts:
        if "*" not in chunk:
            raise UsageError(f"mixture component {chunk!r} must look like WEIGHT*PRIOR")
        w_str, prior_str = chunk.split("*", 1)
        try:
            w = float(w_str)
        except ValueError:
            raise UsageError(f"mixture weight {w_str!r} is not a number")
        components.append((w, _parse_prior(prior_str, alphabets)))
    return MixtureSpec(tuple(components))


def _parse_int_list(spec: str, what: str) -> list[int]:
    try:
        return [int(x) for x in spec.split(",")]
    except ValueError:
        raise UsageError(f"{what} must be a comma-joined integer list, got {spec!r}")


def _parse_float_list(spec: str, what: str) -> list[float]:
    try:
        values = [float(x) for x in spec.split(",")]
        if all(math.isfinite(x) for x in values):
            return values
    except ValueError:
        pass
    raise UsageError(f"{what} must be a comma-joined list of finite floats, got {spec!r}")


def _check_seed(seed: int) -> None:
    try:
        as_seed(seed, "seed")
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


def _check_finite(value: float, what: str, positive: bool = False) -> None:
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "positive and finite" if positive else "finite"
        raise UsageError(f"{what} must be {kind}, got {value}")


def _parse_grid_spec(spec: str) -> int:
    """Grid resolution: a plain integer or '{"resolution": k}'."""
    with contextlib.suppress(ValueError):
        return int(spec)
    doc = None
    with contextlib.suppress(ValueError, RecursionError):   # too many digits, too deeply nested
        doc = json.loads(spec)
    if not isinstance(doc, dict):   # not JSON, or JSON of another type: 1e3, [3], "3", true
        raise UsageError(f"grid spec must be an integer or JSON object, got {spec!r}")
    if set(doc) != {"resolution"}:
        raise UsageError("grid spec object must have exactly the key 'resolution'")
    k = doc["resolution"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise UsageError(f"grid resolution must be an integer, got {k!r}")
    return k


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """CSV float format: '.' decimal, 12 significant digits."""
    return f"{x:.12g}"


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _pieces(template: str, columns: list[np.ndarray], sep: str) -> Iterator[str]:
    """`template % row` for every row of the equal-length columns, joined by
    sep, in pieces of as many rows as `config.CHUNK_BYTES` holds at a row's
    Python footprint.  Values reach the template from `tolist`, as Python
    ints, floats and strings, so a float's %s is float.__repr__."""
    # about 64 bytes a value with its list slot, and 64 for the row's text
    for rows in chunks(len(columns[0]), 64 * (len(columns) + 1)):
        values = zip(*(column[rows].tolist() for column in columns))
        yield (sep if rows.start else "") + sep.join(template % row for row in values)


def _skeleton(spec, columns: list[np.ndarray]):
    """The row layout of `spec` (dicts and lists whose leaves are columns)
    with a slot string at each leaf; appends the leaves to `columns` in the
    order json.dumps(sort_keys=True) writes them, string columns JSON-encoded."""
    if isinstance(spec, dict):
        return {key: _skeleton(spec[key], columns) for key in sorted(spec)}
    if isinstance(spec, list):
        return [_skeleton(item, columns) for item in spec]
    if spec.dtype.kind == "U":
        spec = np.array([encode_basestring_ascii(v) for v in spec.tolist()])
    columns.append(spec)
    return "\0"


def _write_json(fh: TextIO, sections: dict[str, object]) -> None:
    """Write {key: [row, ...]} as json.dumps(doc, indent=2, sort_keys=True)
    + "\n" writes it, rows formatted by one template per key: json.dumps of
    the row skeleton, with %s at each slot."""
    slot = json.dumps("\0")
    for n, key in enumerate(sorted(sections)):
        columns: list[np.ndarray] = []
        layout = json.dumps(_skeleton(sections[key], columns), indent=2, sort_keys=True)
        template = "    " + layout.replace("%", "%%").replace(slot, "%s").replace("\n", "\n    ")
        fh.write(("{" if n == 0 else ",") + "\n  " + json.dumps(key) + ": [")
        if len(columns[0]):
            fh.write("\n")
            fh.writelines(_pieces(template, columns, ",\n"))
            fh.write("\n  ]")
        else:
            fh.write("]")
    fh.write("\n}\n")


def _write_csv(fh: TextIO, header: str, template: str, columns: list[np.ndarray]) -> None:
    fh.write(header + "\n")
    fh.writelines(_pieces(template, columns, ""))


def _corners_sidecar(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.corners{ext or '.csv'}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        ch = load_channel(args.channel)
    except ValidationError as exc:
        for line in str(exc).splitlines():
            print(line)
        return EXIT_DOMAIN
    print(f"ok: {ch.s} sender(s), alphabets {list(ch.sender_alphabets)}, "
          f"output dimension {ch.output_dim}")
    return EXIT_OK


def _per_sender_columns(per_sender) -> list[list[np.ndarray]]:
    """Columns of the per-sender prior vectors, from one (P, a_i) array per sender."""
    return [[v[:, x] for x in range(v.shape[1])] for v in per_sender]


def cmd_region(args) -> int:
    if args.tol is not None:
        _check_finite(args.tol, "tolerance", positive=True)
        if args.mixture is None or not args.corners:
            raise UsageError("--tol needs --mixture and --corners")
    if sum(x is not None for x in (args.prior, args.mixture, args.sweep)) > 1:
        raise UsageError("provide at most one of --prior, --mixture or --sweep")
    ch = load_channel(args.channel)
    s = ch.s
    emit_corners = args.corners
    sections: dict[str, object] = {}

    if args.sweep is not None:
        sweep = boundary_sweep(ch, _parse_grid_spec(args.sweep))
        emit_corners = True
        ids = np.arange(len(sweep.bounds))
        sections["priors"] = {"id": ids, "per_sender": _per_sender_columns(sweep.per_sender)}
        bounds = sweep.bounds
        corner_prior, perms, rates = sweep.corner_prior, sweep.corner_perm, sweep.corner_rates
        if s == 2:
            sections["hull"] = list(upper_boundary_2d(rates).T)
    else:
        if args.mixture is not None:
            mix = _parse_mixture(args.mixture, ch.sender_alphabets)
            cs = mixture_constraints(ch, mix)
            ids = np.array(["mix"])
            sections["priors"] = {
                "id": np.arange(len(mix.components)),
                "per_sender": _per_sender_columns(
                    np.array([prior.per_sender[i] for _, prior in mix.components])
                    for i in range(s)),
                "weight": np.array([w for w, _ in mix.components]),
            }
            if emit_corners:
                perms, rates = member_corners(cs, 1e-9 if args.tol is None else args.tol)
                corner_prior = np.zeros(len(rates), dtype=int)
        else:
            prior = _parse_prior(args.prior, ch.sender_alphabets)
            tables = prior_tables(ch, [prior])
            cs = constraint_set(ch, prior, table=tables[0])
            if emit_corners:
                corner_prior, perms, rates = table_corners(tables, s)
            ids = np.array([0])
            sections["priors"] = {"id": ids, "per_sender": _per_sender_columns(
                v[None] for v in prior.per_sender)}
        bounds = np.array([list(cs.bounds.values())])

    # every number is computed and checked; now the rows are written
    masks = np.tile(np.arange(1, bounds.shape[1] + 1), len(bounds))
    bound_ids = ids[np.repeat(np.arange(len(bounds)), bounds.shape[1])]
    if args.format == "json":
        sections["region"] = {"bound_bits": bounds.ravel(), "prior_id": bound_ids,
                              "subset_mask": masks}
        if emit_corners:
            sections["corners"] = {"perm": list(perms.T + 1), "prior_id": ids[corner_prior],
                                   "rates": list(rates.T)}
        with _output(args.out) as fh:
            _write_json(fh, sections)
        return EXIT_OK
    region_csv = ("prior_id,subset_mask,bound_bits", "%s,%s,%.12g\n",
                  [bound_ids, masks, bounds.ravel()])
    if emit_corners:
        corners_csv = (
            "prior_id,perm," + ",".join(f"R_{i + 1}" for i in range(s)),
            "%s," + "-".join(["%s"] * s) + "," + ",".join(["%.12g"] * s) + "\n",
            [ids[corner_prior], *(perms.T + 1), *rates.T],
        )
    with _output(args.out) as fh:
        _write_csv(fh, *region_csv)
        if emit_corners and args.out is None:
            fh.write("\n")
            _write_csv(fh, *corners_csv)
    if emit_corners and args.out is not None:
        with _output(_corners_sidecar(args.out)) as fh:
            _write_csv(fh, *corners_csv)
    return EXIT_OK


def cmd_simulate(args) -> int:
    ch = load_channel(args.channel)
    prior = _parse_prior(args.prior, ch.sender_alphabets)
    if args.n < 1:
        raise UsageError(f"block length must be >= 1, got {args.n}")
    _check_seed(args.seed)
    if (args.sizes is None) == (args.rates is None):
        raise UsageError("provide exactly one of --sizes or --rates")
    if args.delta is not None and args.rates is None:
        raise UsageError("--delta needs --rates")
    if args.sizes is not None:
        sizes = _parse_int_list(args.sizes, "--sizes")
        if any(L < 1 for L in sizes):
            raise UsageError(f"codebook sizes must be >= 1, got {sizes}")
    else:
        rates = _parse_float_list(args.rates, "--rates")
        if any(r < 0 for r in rates):
            raise UsageError(f"--rates must be nonnegative, got {args.rates!r}")
        delta = 0.0 if args.delta is None else args.delta
        _check_finite(delta, "--delta")
        sizes = sizes_from_rates(rates, args.n, delta)
    if len(sizes) != ch.s:
        raise UsageError(f"channel has {ch.s} senders but {len(sizes)} sizes were given")
    mode = "monte_carlo" if args.mode == "mc" else "exhaustive"
    if mode == "monte_carlo" and args.trials is None:
        raise UsageError("--mode mc needs --trials")
    if mode == "exhaustive" and args.trials is not None:
        raise UsageError("--trials needs --mode mc")

    report = run_simulation(ch, prior, args.n, sizes, args.seed, mode=mode, trials=args.trials)
    if args.format == "csv":
        header, row = report.csv_rows()
        text = ",".join(header) + "\n" + ",".join(
            _fmt(x) if isinstance(x, float) else str(x) for x in row
        ) + "\n"
    else:
        text = _json_doc(report.to_json_dict())
    with _output(args.out) as fh:
        fh.write(text)
    if report.wall_clock_s is not None:
        print(f"simulated {report.messages_evaluated} message tuple(s) "
              f"in {report.wall_clock_s:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    _check_finite(args.tol, "tolerance", positive=True)
    _check_seed(args.seed)
    if args.trials < 0:
        raise UsageError(f"trials must be >= 0, got {args.trials}")
    if args.max_reported < 0:
        raise UsageError(f"max-reported must be >= 0, got {args.max_reported}")
    results = run_suites(args.suite, args.trials, args.seed, args.tol)
    failed = False
    for res in results:
        for line in res.summary_lines():
            print(line)
        if not res.passed:
            failed = True
            for failure in res.failures[: args.max_reported]:
                print(json.dumps(failure, sort_keys=True))
    return EXIT_DOMAIN if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmac",
        description="Capacity regions and decoding simulation for "
                    "classical-quantum multiple-access channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a channel file")
    p.add_argument("--channel", required=True, help="channel JSON path or bundled name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("region", help="constraint sets, corners, mixtures, sweeps")
    p.add_argument("--channel", required=True)
    p.add_argument("--prior", default=None,
                   help="'uniform' (default) or per-sender vectors '0.3,0.7;0.5,0.5'")
    p.add_argument("--corners", action="store_true", help="also emit corner points")
    p.add_argument("--mixture", default=None,
                   help="mixture spec 'w*PRIOR+w*PRIOR', e.g. '0.5*uniform+0.5*1,0;0,1'")
    p.add_argument("--sweep", default=None, metavar="RES",
                   help="sweep all product priors with numerators summing to RES "
                        "(an integer or '{\"resolution\": RES}')")
    p.add_argument("--tol", type=float, default=None,
                   help="needs --mixture --corners (default 1e-9): corners must lie in the "
                        "mixture region within TOL, and a corner within TOL of an earlier "
                        "one is dropped; single-prior and sweep corners are deduplicated "
                        "within a fixed 1e-9 (region.CORNER_DEDUP_TOL)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="random-codebook sequential decoding")
    p.add_argument("--channel", required=True)
    p.add_argument("--prior", default=None)
    p.add_argument("--n", type=int, required=True, help="block length")
    p.add_argument("--sizes", default=None, help="codebook sizes 'L1,L2,...'")
    p.add_argument("--rates", default=None, help="target rates 'R1,R2,...' in bits/use")
    p.add_argument("--delta", type=float, default=None,
                   help="rate back-off, default 0: sizes are ceil(2^(n (R - delta)))")
    p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    p.add_argument("--mode", choices=("exhaustive", "mc"), default="exhaustive")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo message tuples")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="randomized verification suites")
    p.add_argument("--suite", choices=("entropy", "lemmas", "region", "all"), default="all")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-reported", type=int, default=5,
                   help="violating instances printed per suite")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ChannelFormatError, OSError, ValidationError, CapExceeded) as exc:
        # one line, however many violations the message lists
        print("error: " + "; ".join(str(exc).splitlines()), file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, (ValidationError, CapExceeded)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
