"""Command-line front end.

Subcommands: solve, perfect, census, rough, chain, verify-oeis.  Results go
to stdout (or --out PATH); progress and diagnostics go to stderr, so stdout
is always machine-consumable.  Exit statuses: 0 success, 1 node budget
exhausted, 2 usage error (including an --out PATH that cannot be written),
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .census import (
    CENSUS_CSV_HEADER,
    census_csv_row,
    census_json_dict,
    compare_oeis,
    load_bfile,
    run_chain_census,
    theorem_report,
)
from .errors import BFileParseError, BudgetExceededError, InternalConsistencyError, UsageError
from .numtheory import build_factor_table  # noqa: F401  # perfbench/spans.py wraps this name
from .numtheory import compute_z, rough_count
from .tiling import DEFAULT_NODE_BUDGET, check_perfect, solve_m, tiling_to_json
from .tiling import verify_tiling  # noqa: F401  # perfbench/spans.py wraps this name

__all__ = ["RunConfig", "parse_args", "dispatch", "main"]

EXIT_OK = 0
EXIT_BUDGET = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int | None = None
    x: int | None = None
    z: int | None = None
    from_n: int | None = None
    to_n: int | None = None
    node_budget: int = DEFAULT_NODE_BUDGET
    output_format: str = "text"
    output_path: Path | None = None
    bfile: Path | None = None


def _at_least(k: int):
    """An argparse type for an int >= k."""
    def parse(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


@functools.cache  # built once: a fresh tree per call cost ~2 ms and left cyclic garbage
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mondrian",
        description="Mondrian tilings, the perfect-tiling divisor filter, and rough-number censuses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, formats: tuple[str, ...]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--budget", type=_at_least(1), default=DEFAULT_NODE_BUDGET,
                       dest="node_budget",
                       help="search node budget (placements of pieces that fit and that "
                            "the corner symmetry rule allows)")
        p.add_argument("--format", choices=formats, default="text", dest="output_format")
        p.add_argument("--out", type=Path, default=None, dest="output_path",
                       help="write results to PATH instead of stdout")
        p.add_argument("--workers", type=_at_least(1), default=1,
                       help="no effect, accepted for compatibility: every command "
                            "runs in one thread")
        return p

    p = add("solve", "minimum defect M(n) with a tiling certificate", ("text", "json"))
    p.add_argument("--n", type=_at_least(3), required=True)

    p = add("perfect", "decide whether an equal-area (defect 0) tiling exists", ("text", "json"))
    p.add_argument("--n", type=_at_least(3), required=True)

    p = add("census", "chain census record over [3, x]", ("text", "json", "csv"))
    p.add_argument("--x", type=_at_least(16), required=True)

    p = add("rough", "count z-rough integers up to x", ("text", "json", "csv"))
    p.add_argument("--x", type=_at_least(1), required=True)
    p.add_argument("--z", type=_at_least(0), default=None)

    p = add("chain", "census counts against their asymptotic reference values", ("text", "json"))
    p.add_argument("--x", type=_at_least(16), required=True)

    p = add("verify-oeis", "recompute M(n) against an OEIS b-file", ("text", "json"))
    p.add_argument("--bfile", type=Path, required=True)
    p.add_argument("--from", type=_at_least(3), required=True, dest="from_n")
    p.add_argument("--to", type=int, required=True, dest="to_n")

    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Validate argv into a RunConfig; bad usage exits with status 2."""
    fields = vars(_build_parser().parse_args(argv))
    del fields["workers"]  # validated, then ignored
    return RunConfig(**fields)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path is not None:
        config.output_path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# command bodies: each returns (stdout text, exit status)


def _run_solve(config: RunConfig) -> tuple[str, int]:
    value, cert = solve_m(config.n, node_budget=config.node_budget)
    if config.output_format == "json":
        return tiling_to_json(cert) + "\n", EXIT_OK
    # solve_m has verified cert already; the areas are all that is left to print
    areas = [p.width * p.height for p in cert.placements]
    lines = [
        f"M({config.n}) = {value}",
        f"defect {max(areas) - min(areas)} (min area {min(areas)}, max area {max(areas)})",
        "pieces:",
    ]
    lines.extend(f"  {p.width}x{p.height} @ ({p.x},{p.y})" for p in cert.placements)
    return "\n".join(lines) + "\n", EXIT_OK


def _run_perfect(config: RunConfig) -> tuple[str, int]:
    outcome = check_perfect(config.n, node_budget=config.node_budget)
    if config.output_format == "json":
        obj = {
            "n": outcome.n,
            "verdict": outcome.verdict.value,
            "witness_d": outcome.witness_d,
            "nodes_searched": outcome.nodes_searched,
            "certificate": None
            if outcome.certificate is None
            else json.loads(tiling_to_json(outcome.certificate)),
        }
        return json.dumps(obj) + "\n", EXIT_OK
    return outcome.verdict.value + "\n", EXIT_OK


def _run_census(config: RunConfig) -> tuple[str, int]:
    record = run_chain_census(config.x)
    if config.output_format == "csv":
        return CENSUS_CSV_HEADER + "\n" + census_csv_row(record) + "\n", EXIT_OK
    d = census_json_dict(record)
    if config.output_format == "json":
        return json.dumps(d) + "\n", EXIT_OK
    d.pop("notes")
    return "".join(f"{k} = {v}\n" for k, v in d.items()), EXIT_OK


def _run_rough(config: RunConfig) -> tuple[str, int]:
    z = config.z if config.z is not None else compute_z(config.x)
    count = rough_count(config.x, z)
    if config.output_format == "json":
        return json.dumps({"x": config.x, "z": z, "count_rough": count}) + "\n", EXIT_OK
    if config.output_format == "csv":
        return f"x,z,count_rough\n{config.x},{z},{count}\n", EXIT_OK
    return f"{count}\n", EXIT_OK


def _run_chain(config: RunConfig) -> tuple[str, int]:
    report = theorem_report(config.x)
    if config.output_format == "json":
        return json.dumps(report.as_dict()) + "\n", EXIT_OK
    r = report.record
    lines = [
        f"x = {r.x}, z = {r.z}",
        f"chain: rough_small_tau={r.count_rough_small_tau} <= p3={r.count_p3} "
        f"<= p2={r.count_p2} <= p1={r.count_p1}",
        f"count_rough [3..x]          = {r.count_rough}",
        f"x * mertens_product(z)      = {report.product_reference:.6g} "
        f"(ratio {report.rough_to_product_ratio:.6g})",
        f"mertens_rhs  e^-g x / ln z  = {r.mertens_rhs:.6g} "
        f"(ratio {report.rough_to_mertens_ratio:.6g})",
        f"theorem_rhs  e^-g/2 x/lnlnx = {r.theorem_rhs:.6g}",
        f"count_excess_tau            = {r.count_excess_tau}",
    ]
    lines.extend(f"note: {note}" for note in report.notes)
    return "\n".join(lines) + "\n", EXIT_OK


def _run_verify_oeis(config: RunConfig) -> tuple[str, int]:
    series = load_bfile(config.bfile)
    outcome = compare_oeis(
        series, config.from_n, config.to_n, node_budget=config.node_budget
    )
    if config.output_format == "json":
        obj = {
            "from": config.from_n,
            "to": config.to_n,
            "mismatches": [list(m) for m in outcome.mismatches],
            "budget_exceeded": list(outcome.budget_exceeded),
        }
        text = json.dumps(obj) + "\n"
    else:
        lines = [f"{len(outcome.mismatches)} mismatches"]
        for n, computed, expected in outcome.mismatches:
            lines.append(f"n={n}: computed {computed}, expected {expected}")
        for n in outcome.budget_exceeded:
            lines.append(f"n={n}: budget exceeded")
        text = "\n".join(lines) + "\n"
    return text, EXIT_BUDGET if outcome.budget_exceeded else EXIT_OK


# runners, not solve_m etc.: those are looked up at call time, where perfbench's tracer wraps them
_RUNNERS = {
    "solve": _run_solve,
    "perfect": _run_perfect,
    "census": _run_census,
    "rough": _run_rough,
    "chain": _run_chain,
    "verify-oeis": _run_verify_oeis,
}


def dispatch(config: RunConfig) -> int:
    """Run the configured command; returns the process exit status."""
    try:
        text, status = _RUNNERS[config.command](config)
        _emit(config, text)
    except BudgetExceededError as exc:
        _log(f"budget exceeded: {exc}")
        if exc.lower_bound is not None:
            _log(f"proven lower bound: {exc.lower_bound}")
        if exc.unresolved:
            _log(f"unresolved piece areas: {list(exc.unresolved)}")
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        _log(f"internal consistency error: {exc}")
        return EXIT_INTERNAL
    except (BFileParseError, OSError, UsageError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    return status


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return dispatch(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
