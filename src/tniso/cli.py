"""Command-line interface.

Subcommands: check-channel, classify, correct, simulate, epsilon, example.
Exit codes are stable across commands: 0 success, 1 analysis verdict
failure, 2 input error. Reports are deterministic for a fixed config; only
``epsilon`` reads ``--seed``, which the other commands accept and ignore.
Wall-clock duration lives under a separate "meta" key so the report body
can be hashed. ``simulate`` takes its per-round epsilon from the round's
trace-norm certificate and its bounds from the bound checks. Each command's
human summary goes to stdout, or to stderr when the JSON report does, so
that stdout is then one JSON document.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import _round_residual, build_correction, check_ns_factorization, classify
from .channels import Superoperator, compose
from .codes import make_example2_channel, make_repetition_example
from .errors import ContractViolation, NotCorrectableError, TnisoError
from .opcore import DensityOperator
from .robustness import (
    check_geometric_bound,
    check_prop3_bound,
    estimate_epsilon,
    simulate_iterated,
)
from . import serialize
from . import tolerances as tol

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2

_STRATEGIES = {"petz": "time_reversal", "replace": "replace"}
_SEED_HELP = "seed of epsilon's random restarts; the other commands ignore it (default 0)"


def _resolve_tol(args) -> float:
    """``--tol`` if given, else ``TNISO_TOL``, else the default; must be positive and finite."""
    if getattr(args, "tol", None) is not None:
        value, name = args.tol, "tol"
    else:
        env = os.environ.get("TNISO_TOL")
        if env is None:
            return tol.DETECTION_TOL
        try:
            value, name = float(env), "TNISO_TOL"
        except ValueError as exc:
            raise ContractViolation(f"TNISO_TOL is not a number: {env!r}") from exc
    return tol.require_tolerance(value, name)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, and each ``add_argument`` costs a formatter."""
    parser = argparse.ArgumentParser(
        prog="tniso",
        description="Analyze trace-norm isometric encodings under CPTP noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, channel=False, code=False, recovery=False, state=False):
        if channel:
            p.add_argument("--channel", required=True, help="channel JSON file")
        if code:
            p.add_argument("--code", required=True, help="code JSON file")
        if recovery:
            p.add_argument("--recovery", help="recovery channel JSON file")
        if state:
            p.add_argument("--state", help="initial state JSON file")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
        p.add_argument("--out", help="output path for the JSON report")

    p = sub.add_parser("check-channel", help="validate a channel file")
    add_common(p, channel=True)

    p = sub.add_parser("classify", help="full code classification table")
    add_common(p, channel=True, code=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="petz")

    p = sub.add_parser("correct", help="construct and write a recovery channel")
    add_common(p, channel=True, code=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="petz")

    p = sub.add_parser("simulate", help="iterate recovery-after-channel")
    add_common(p, channel=True, code=True, recovery=True, state=True)
    p.add_argument("--iters", type=int, default=10, help="number of rounds")
    p.add_argument("--csv", help="write (n, error, bounds) rows to this CSV file")

    p = sub.add_parser("epsilon", help="estimate the per-round perturbation bracket")
    add_common(p, channel=True, code=True, recovery=True)

    p = sub.add_parser("example", help="generate a named example system")
    p.add_argument("name", choices=["repetition", "example2"])
    p.add_argument("--p", type=float, default=0.4, help="flip probability")
    p.add_argument("--epsilon", type=float, default=0.05, help="phase-flip admixture")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--out", default=".", help="output directory for generated files")
    return parser


def _load_channel(path):
    return serialize.channel_from_dict(serialize.load_json(path))


def _load_system(args):
    """Channel, code and recovery (None without ``--recovery``), every
    channel square on the code's physical space."""
    channel = _load_channel(args.channel)
    encoding = serialize.encoding_from_dict(serialize.load_json(args.code))
    d = encoding.dim_physical
    if (channel.dim_in, channel.dim_out) != (d, d):
        raise ContractViolation("channel and code dimensions do not match")
    recovery = None
    if getattr(args, "recovery", None):
        recovery = _load_channel(args.recovery)
        if (recovery.dim_in, recovery.dim_out) != (d, d):
            raise ContractViolation("recovery and code dimensions do not match")
    return channel, encoding, recovery


# the arguments each report echoes under "config", those its command reads;
# "tol" is the resolved tolerance, and correct writes no report
_CONFIG = {
    "check-channel": ("channel",),
    "classify": ("channel", "code", "strategy", "tol"),
    "simulate": ("channel", "code", "recovery", "state", "iters"),
    "epsilon": ("channel", "code", "recovery", "seed"),
    "example": ("name", "p", "epsilon", "iters", "out"),
}


def _write_report(args, tol_, results: dict, meta: dict, started: float) -> None:
    """The JSON report, to ``--out`` (``example``: ``<name>_report.json`` in
    that directory) or else to stdout; wall-clock data lives under ``meta``."""
    report = {
        "command": args.command,
        "config": {k: tol_ if k == "tol" else getattr(args, k) for k in _CONFIG[args.command]},
        "results": results,
        "versions": {
            "tniso": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "meta": {**meta, "duration_s": time.perf_counter() - started},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    out = args.out
    if args.command == "example":
        out = os.path.join(args.out, f"{args.name}_report.json")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_check_channel(args, tol_):
    # validation is the point here, so load without the TP gate and judge
    # the defect against the gate every other command loads channels through
    channel = serialize.channel_from_dict(
        serialize.load_json(args.channel), tp_tol=float("inf")
    )
    residual = channel.tp_defect()
    trace_preserving = residual <= tol.TP_TOL
    results = {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus_count": channel.kraus_count,
        "tp_residual": float(residual),
        "trace_preserving": trace_preserving,
    }
    summary = (
        f"channel {args.channel}: {channel.kraus_count} Kraus operators, "
        f"{channel.dim_in} -> {channel.dim_out}, TP residual {residual:.3e}"
    )
    return (EXIT_OK if trace_preserving else EXIT_VERDICT), results, {}, summary


def _cmd_classify(args, tol_):
    channel, encoding, _ = _load_system(args)
    result = classify(encoding, channel, tol_=tol_, strategy=_STRATEGIES[args.strategy])
    table = result.as_dict()
    lines = [f"{'property':<24}{'verdict':<9}"]
    lines += [f"{k:<24}{'yes' if v else 'no':<9}" for k, v in table.items() if k != "residuals"]
    lines += [f"  residual[{k}] = {v:.3e}" for k, v in sorted(table["residuals"].items())]
    return EXIT_OK, table, result.meta, "\n".join(lines)


def _cmd_correct(args, tol_):
    channel, encoding, _ = _load_system(args)
    recovery, details = build_correction(
        encoding, channel, strategy=_STRATEGIES[args.strategy], tol_=tol_, return_details=True
    )
    residual = _round_residual(channel, recovery, encoding)
    out_path = args.out or "recovery.json"
    serialize.dump_json(serialize.channel_to_dict(recovery), out_path)
    verification = {
        "recovery_file": out_path,
        "fixed_residual": float(residual),
        "strategy_requested": details.strategy_requested,
        "strategy_used": details.strategy_used,
        "fell_back": details.fell_back,
        "kraus_count": recovery.kraus_count,
    }
    return EXIT_OK, None, {}, json.dumps(verification, indent=2, sort_keys=True)


def _cmd_simulate(args, tol_):
    if not args.recovery:
        raise ContractViolation("simulate requires --recovery")
    channel, encoding, recovery = _load_system(args)
    if args.state:
        rho = serialize.state_from_json(serialize.load_json(args.state))
        try:
            DensityOperator(rho)
        except ContractViolation as exc:
            raise ContractViolation(f"state is not a density operator: {exc}") from exc
        if rho.shape[0] == encoding.dim_logical:
            rho = encoding.encode(rho)
        elif rho.shape[0] != encoding.dim_physical:
            raise ContractViolation(
                f"state dimension {rho.shape[0]} matches neither the logical "
                f"({encoding.dim_logical}) nor the physical ({encoding.dim_physical}) space"
            )
    else:
        d = encoding.dim_logical
        rho = encoding.encode(np.full((d, d), 1.0 / d, dtype=complex))

    # the certified per-round epsilon: the round's trace-norm certificate,
    # bit for bit the upper end of the epsilon command's bracket
    upper = _round_residual(channel, recovery, encoding)
    trace = simulate_iterated(channel, recovery, rho, args.iters, encoding=encoding)
    prop3_ok, margin = check_prop3_bound(trace, upper)
    geo = check_geometric_bound(trace, upper)

    results = {
        "iterations": args.iters,
        "errors": trace.errors.tolist(),
        "decoded_errors": trace.decoded_errors.tolist(),
        "final_decoded_state": serialize.state_to_json(encoding.decode(trace.states[-1])),
        "alpha_estimates": [a if np.isfinite(a) else None for a in trace.alpha_estimates.tolist()],
        "alpha_max": None if trace.alpha_max is None else float(trace.alpha_max),
        "epsilon_upper": float(upper),
        "linear_bound": (upper * np.arange(args.iters + 1, dtype=float)).tolist(),
        "geometric_bound": None if geo.bound is None else float(geo.bound),
        "linear_bound_ok": prop3_ok,
        "linear_bound_margin": float(margin),
        "geometric_bound_ok": geo.ok,
    }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "error", "linear_bound", "geometric_bound"])
            gb = results["geometric_bound"]
            for i, err in enumerate(results["errors"]):
                writer.writerow([i, err, results["linear_bound"][i], gb])
    summary = (
        f"simulated {args.iters} rounds: final error {results['errors'][-1]:.6f}, "
        f"decoded error {results['decoded_errors'][-1]:.6f}, "
        f"per-round epsilon <= {upper:.6f}"
    )
    return EXIT_OK, results, {}, summary


def _cmd_epsilon(args, tol_):
    channel, encoding, recovery = _load_system(args)
    composite = channel @ encoding
    if recovery is not None:
        composite = recovery @ composite
    est = estimate_epsilon(composite, encoding, seed=args.seed)
    results = {
        "epsilon_witness": float(est.epsilon),
        "epsilon_upper": float(est.upper_bound),
        "witness_state": serialize.state_to_json(est.witness_state),
    }
    summary = f"perturbation bracket: [{est.epsilon:.6e}, {est.upper_bound:.6e}]"
    return EXIT_OK, results, {"epsilon_search_dim": est.search_dim}, summary


def _example_goldens_repetition(system, p, tol_):
    deltas = []
    image = system.channel(system.encoding.encode(np.diag([1.0, 0.0]).astype(complex)))
    block = system.encoding.decomposition.restrict(image)[:4, :4]
    spectrum = np.sort(np.linalg.eigvalsh(block))[::-1]
    expected = np.sort([1.0 - p, p / 3.0, p / 3.0, p / 3.0])[::-1]
    if np.abs(spectrum - expected).max() > tol.GOLDEN_EXACT_TOL:
        deltas.append(
            f"cofactor image spectrum {spectrum.tolist()} != {expected.tolist()}"
        )
    protect_loop = compose(system.channel, system.recovery)
    ns_ok, cof, ns_res = check_ns_factorization(
        protect_loop, system.encoding.decomposition, max(tol_, tol.GOLDEN_NS_FLOOR)
    )
    if not ns_ok:
        deltas.append(
            f"channel-after-recovery does not factor off the logical qubit "
            f"(residual {ns_res:.3e})"
        )
    else:
        ref = np.zeros((4, 4), dtype=complex)
        ref[0, 0] = 1.0
        dev = np.abs(cof(ref) - np.diag([1.0 - p, p / 3.0, p / 3.0, p / 3.0])).max()
        if dev > tol.GOLDEN_EXACT_TOL:
            deltas.append(f"cofactor channel image deviates by {dev:.3e}")
    fixed_res = _round_residual(system.channel, system.recovery, system.encoding)
    if fixed_res > tol.GOLDEN_FIXED_TOL:
        deltas.append(f"code not fixed under correction (residual {fixed_res:.3e})")
    if p == 0.0:
        ident = Superoperator.identity(8).matrix
        dev = np.abs(system.channel.superoperator().matrix - ident).max()
        if dev > tol.GOLDEN_EXACT_TOL:
            deltas.append(f"p=0 channel is not the identity (deviation {dev:.3e})")
    return deltas


def _example_goldens_example2(system, channel, p, eps, iters):
    deltas = []
    rho_c = 0.5 * np.ones((2, 2), dtype=complex)
    # the certified upper end of one round's perturbation bracket
    epsilon_upper = _round_residual(channel, system.recovery, system.encoding)
    trace = simulate_iterated(
        channel, system.recovery, system.encoding.encode(rho_c), iters, encoding=system.encoding
    )
    ok, margin = check_prop3_bound(trace, epsilon_upper)
    if not ok:
        deltas.append(f"linear error bound violated (margin {margin:.3e})")
    final = system.encoding.decode(trace.states[-1])
    offdiag = [abs(system.encoding.decode(s)[0, 1]) for s in trace.states]
    if any(b > a + tol.GOLDEN_EXACT_TOL for a, b in zip(offdiag, offdiag[1:])):
        deltas.append("decoded coherence is not non-increasing")
    if (p, eps, iters) == (0.4, 0.05, 10):
        if abs(abs(final[0, 1]) - 0.332) > tol.GOLDEN_DIGITS_TOL:
            deltas.append(f"decoded off-diagonal {abs(final[0, 1]):.6f} != 0.332 +- 0.001")
        err = trace.decoded_errors[-1]
        if abs(err - 0.335) > tol.GOLDEN_DIGITS_TOL:
            deltas.append(f"decoded error {err:.6f} != 0.335 +- 0.001")
    return deltas, trace, epsilon_upper


def _cmd_example(args, tol_):
    os.makedirs(args.out, exist_ok=True)
    system = make_repetition_example(args.p)
    if args.name == "repetition":
        channel = system.channel
        deltas = _example_goldens_repetition(system, args.p, tol_)
        extra = {}
    else:
        channel = make_example2_channel(args.p, args.epsilon)
        deltas, trace, epsilon_upper = _example_goldens_example2(
            system, channel, args.p, args.epsilon, args.iters
        )
        extra = {"errors": trace.decoded_errors.tolist(), "epsilon_upper": float(epsilon_upper)}
    paths = {
        "channel": os.path.join(args.out, f"{args.name}_channel.json"),
        "code": os.path.join(args.out, f"{args.name}_code.json"),
        "recovery": os.path.join(args.out, f"{args.name}_recovery.json"),
    }
    serialize.dump_json(serialize.channel_to_dict(channel), paths["channel"])
    serialize.dump_json(serialize.encoding_to_dict(system.encoding), paths["code"])
    serialize.dump_json(serialize.channel_to_dict(system.recovery), paths["recovery"])
    for d in deltas:
        print(f"GOLDEN MISMATCH: {d}", file=sys.stderr)
    lines = [f"wrote {label}: {path}" for label, path in paths.items()]
    if not deltas:
        lines.append("golden checks passed")
    results = {"files": paths, "golden_ok": not deltas, "deltas": deltas, **extra}
    return (EXIT_OK if not deltas else EXIT_VERDICT), results, {}, "\n".join(lines)


_DISPATCH = {
    "check-channel": _cmd_check_channel,
    "classify": _cmd_classify,
    "correct": _cmd_correct,
    "simulate": _cmd_simulate,
    "epsilon": _cmd_epsilon,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        tol_ = _resolve_tol(args)
        if getattr(args, "iters", 1) < 1:
            raise ContractViolation(f"iters must be at least 1, got {args.iters}")
        if args.seed < 0:
            raise ContractViolation(f"seed must be nonnegative, got {args.seed}")
        code, results, meta, summary = _DISPATCH[args.command](args, tol_)
        # a report on stdout keeps it to one JSON document
        print(summary, file=sys.stderr if results is not None and not args.out else sys.stdout)
        if results is not None:
            _write_report(args, tol_, results, meta, started)
    except NotCorrectableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (TnisoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
