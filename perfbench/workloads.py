"""The benchmark's workloads, their output checks and their timing records.

Every workload is a closed loop with one client: each operation starts when
the previous one has finished. A workload builds its inputs from the seed
in ``setup``, warms up on inputs it does not measure, then runs ``cycle``
until the run's time is up. Operations are called through tniso's public
entry points, looked up at call time so that a tracer installed on those
names sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import tempfile
import time
import types
from collections import defaultdict

import numpy as np

from tniso import analysis, channels, cli, robustness, sampling, serialize

# Seed index of the inputs used only to warm up, never measured.
WARMUP_INDEX = 2**31 - 1


def report_implication_problems(r) -> list[str]:
    """Breaches of the implications ``ClassificationReport`` promises."""
    problems = []
    if r.fixed and not r.preserved:
        problems.append("fixed but not preserved")
    if not (r.preserved == r.correctable == r.completely_correctable):
        problems.append("preserved, correctable and completely_correctable disagree")
    if r.unitarily_correctable and not r.correctable:
        problems.append("unitarily correctable but not correctable")
    return problems


_PROBE_KRAUS = np.random.default_rng(0).standard_normal((32, 16, 16)) + 0j
_PROBE_STATE = np.eye(16, dtype=complex)


def probe_s() -> float:
    """Seconds for a fixed kernel that does not touch tniso: a numpy einsum
    of the Kraus-application shape (about 5 ms idle) plus a short pure-Python
    loop (under 1 ms), mirroring tniso's mix of numpy kernels and
    interpreter overhead.

    Timed before every operation, its median says how fast the machine ran
    during the run, whatever the code under test does.
    """
    t0 = time.perf_counter()
    np.einsum("kij,jl,kml->im", _PROBE_KRAUS, _PROBE_STATE, _PROBE_KRAUS.conj())
    acc = 0
    for i in range(10_000):
        acc += i * i
    return time.perf_counter() - t0


class _NoTracer:
    """Stand-in with the tracer's harness interface that records nothing."""

    @contextlib.contextmanager
    def span(self, label):
        yield

    @contextlib.contextmanager
    def paused(self):
        yield


class Recorder:
    """Latency samples per operation kind and the run's verdict checks.

    ``attempted`` counts checked operations; an operation fails when it
    raises or when any of its checks reports a problem.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else _NoTracer()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.probe: list[float] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._cycle_s = 0.0

    def op(self, kind: str, fn, check=None):
        """Time ``fn()`` as one ``kind`` sample, then run ``check(result)``.

        ``check`` returns a list of problems; it runs untimed and untraced,
        and a check that raises counts as a failure. Returns the result, or
        None when the operation raised.
        """
        self.attempted += 1
        self.probe.append(probe_s())
        try:
            with self.tracer.span(kind):
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:  # a raising operation is a failed verdict, not a crash
            self.failures.append(f"{kind}: raised {type(exc).__name__}: {exc}")
            return None
        self.samples[kind].append(dt)
        self._cycle_s += dt
        if check is not None:
            try:
                with self.tracer.paused():
                    problems = check(result)
            except Exception as exc:  # e.g. a report the operation should have written is missing
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self._record(kind, problems)
        return result

    def time_setup(self, make):
        """Set up a fresh workload from ``make()``, timed; return it."""
        workload = make()
        with self.tracer.span("setup"):
            t0 = time.perf_counter()
            workload.setup()
            self.setups.append(time.perf_counter() - t0)
        return workload

    def verdict(self, what: str, problems: list[str]) -> None:
        """Count one check that is not tied to a single timed operation."""
        self.attempted += 1
        self._record(what, problems)

    def _record(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def end_cycle(self) -> None:
        """Record the summed operation time of the cycle just finished."""
        self.samples["cycle"].append(self._cycle_s)
        self._cycle_s = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)


def geomean_across_kinds(samples, kinds, per_kind=statistics.median) -> float:
    """Geometric mean across kinds of ``per_kind`` (by default the median) of each kind's latencies.

    Every kind moves it by its own relative change, however cheap or
    expensive the kind is: a 10% slowdown of one kind out of n moves it by
    about 10%/n.
    """
    return statistics.geometric_mean(per_kind(samples[k]) for k in kinds if samples[k])


def tail(samples, kinds) -> tuple[float, float, int]:
    """Pooled nearest-rank tail: the value with ten samples beyond it.

    Returns (value, percentile, sample count). With ten samples or fewer no
    such value exists and the maximum is returned at percentile 100.
    """
    pooled = sorted(x for k in kinds for x in samples[k])
    n = len(pooled)
    if n <= 10:
        return pooled[-1], 100.0, n
    return pooled[n - 11], 100.0 * (n - 10) / n, n


def latency_stat(samples, kinds, how: str) -> dict:
    """``how`` is "p50" (geometric mean of kind medians) or "tail" (pooled tail)."""
    if how == "p50":
        return {"value": geomean_across_kinds(samples, kinds), "unit": "s"}
    value, pct, n = tail(samples, kinds)
    return {"value": value, "unit": "s", "percentile": pct, "samples": n}


class Workload:
    """Common shape: sample kinds that make up each reported metric."""

    name = ""
    op_kinds: tuple[str, ...] = ()    # the primary operations: op_mean_rel
    aux_kinds: tuple[str, ...] = ()   # the secondary operations: aux_mean_rel
    # latency-distribution table: name -> (kinds, "p50" | "tail")
    named: dict[str, tuple[tuple[str, ...], str]] = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def cycle(self, rec: Recorder, index: int) -> None:
        raise NotImplementedError

    def working_set(self) -> dict[str, int]:
        """Largest arrays the workload touches, in bytes (computed from shapes)."""
        return {}


def _superop_bytes(d: int) -> int:
    return d**4 * 16


# -- paper-cli ---------------------------------------------------------------

CLI_SYSTEMS = ("repetition", "example2")
CLI_COMMANDS = ("example", "check-channel", "classify", "correct", "simulate", "epsilon")


def _run_cli(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2


def _body_digest(path: str) -> str:
    """Digest of a report without its ``meta`` timing block (or of a raw file)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw)
    if isinstance(doc, dict):
        doc.pop("meta", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class PaperCli(Workload):
    """Every CLI command on both bundled systems, called in-process."""

    name = "paper-cli"
    op_kinds = tuple(f"{c} {s}" for s in CLI_SYSTEMS for c in CLI_COMMANDS)
    aux_kinds = ("epsilon example2",)
    named = {
        "cli_cmd_p50_s": (op_kinds, "p50"),
        "cli_cmd_tail_s": (op_kinds, "tail"),
    }

    def setup(self) -> None:
        inputs = tempfile.mkdtemp(prefix="cli-inputs-", dir=self.workdir)
        for system in CLI_SYSTEMS:
            code = _run_cli(["example", system, "--out", inputs, "--seed", str(self.seed)])
            if code != 0:
                raise RuntimeError(f"example {system} exited {code} during set-up")
        rng = np.random.default_rng(self.seed)
        state = os.path.join(inputs, "state.json")
        serialize.dump_json(serialize.state_to_json(sampling.random_density(2, rng)), state)
        self.inputs = inputs
        self.outdir = tempfile.mkdtemp(prefix="cli-pass-", dir=self.workdir)
        self.reference: dict[str, str] = {}

    def _commands(self, outdir: str):
        """(kind, argv, expected exit code, output file) for one pass."""
        seed = str(self.seed)
        for s in CLI_SYSTEMS:
            ch = os.path.join(self.inputs, f"{s}_channel.json")
            code = os.path.join(self.inputs, f"{s}_code.json")
            rec = os.path.join(self.inputs, f"{s}_recovery.json")
            state = os.path.join(self.inputs, "state.json")
            out = lambda cmd: os.path.join(outdir, f"{s}_{cmd}.json")
            yield f"example {s}", ["example", s, "--out", outdir, "--seed", seed], 0, \
                os.path.join(outdir, f"{s}_report.json")
            yield f"check-channel {s}", ["check-channel", "--channel", ch, "--out", out("check")], 0, out("check")
            yield f"classify {s}", ["classify", "--channel", ch, "--code", code, "--seed", seed,
                                    "--out", out("classify")], 0, out("classify")
            # example2's code is not preserved, so refusing to correct it is the right verdict
            yield f"correct {s}", ["correct", "--channel", ch, "--code", code, "--seed", seed,
                                   "--out", out("recovery")], 1 if s == "example2" else 0, out("recovery")
            yield f"simulate {s}", ["simulate", "--channel", ch, "--code", code, "--recovery", rec,
                                    "--state", state, "--seed", seed, "--out", out("simulate")], 0, out("simulate")
            yield f"epsilon {s}", ["epsilon", "--channel", ch, "--code", code, "--recovery", rec,
                                   "--seed", seed, "--out", out("epsilon")], 0, out("epsilon")

    def _check(self, kind: str, expected: int, path: str, code: int) -> list[str]:
        if code != expected:
            return [f"exit code {code}, expected {expected}"]
        if expected != 0:
            return ["wrote output despite failing"] if os.path.exists(path) else []
        problems = []
        with open(path) as fh:
            results = json.load(fh).get("results", {})
        command, system = kind.split()
        if command == "example" and results.get("golden_ok") is not True:
            problems.append(f"golden checks failed: {results.get('deltas')}")
        if command == "simulate" and results.get("linear_bound_ok") is not True:
            problems.append("linear error bound violated")
        if command == "classify":
            verdict = results.get("preserved")
            if verdict is not (system == "repetition"):
                problems.append(f"preserved={verdict}")
            problems.extend(report_implication_problems(types.SimpleNamespace(**results)))
        digest = _body_digest(path)
        if self.reference.setdefault(kind, digest) != digest:
            problems.append("report body differs from the first pass")
        return problems

    def _pass(self, rec: Recorder, outdir: str) -> None:
        for kind, argv, expected, path in self._commands(outdir):
            if os.path.exists(path):
                os.remove(path)
            rec.op(kind, lambda: _run_cli(argv),
                   lambda code: self._check(kind, expected, path, code))

    def warmup(self) -> None:
        self._pass(Recorder(), tempfile.mkdtemp(prefix="cli-warmup-", dir=self.workdir))
        self.reference = {}

    def cycle(self, rec: Recorder, index: int) -> None:
        self._pass(rec, self.outdir)

    def working_set(self) -> dict[str, int]:
        return {"superoperator d_P=8": _superop_bytes(8)}


# -- classify-ladder -----------------------------------------------------------

LADDER_RUNGS = ((2, 4, 2), (3, 4, 3), (4, 4, 4))   # (d_S, d_F, d_R): d_P = 10, 15, 20
NEAR_MISS_WEIGHT = 1e-4


class ClassifyLadder(Workload):
    """Classify, correct and near-miss rejection on a ladder of sizes.

    Each cycle generates fresh systems from a per-cycle seed, untimed; set-up
    generates the warm-up cycle's systems.
    """

    name = "classify-ladder"

    def __init__(self, seed: int, workdir: str, rungs=LADDER_RUNGS):
        super().__init__(seed, workdir)
        self.rungs = rungs
        self.labels = [f"d_P={s * f + r}" for s, f, r in rungs]
        classify_kinds = tuple(f"classify {l}" for l in self.labels)
        correct_kinds = tuple(f"correct {l}" for l in self.labels)
        self.op_kinds = classify_kinds + correct_kinds
        self.aux_kinds = tuple(f"reject {l}" for l in self.labels)
        self.named = {
            "classify_p50_s": (classify_kinds, "p50"),
            "classify_tail_s": (classify_kinds, "tail"),
            "reject_p50_s": (self.aux_kinds, "p50"),
            "correct_p50_s": (correct_kinds, "p50"),
        }

    def systems(self, index: int):
        """(label, encoding, channel, near-miss channel) per rung for one cycle."""
        rng = np.random.default_rng([self.seed, index])
        out = []
        for label, (d_s, d_f, d_r) in zip(self.labels, self.rungs):
            encoding, channel = sampling.random_preserved_system(d_s, d_f, d_r, rng)
            noise = sampling.random_channel(encoding.dim_physical, rng)
            near = channels.convex_mix([1.0 - NEAR_MISS_WEIGHT, NEAR_MISS_WEIGHT], [channel, noise])
            out.append((label, encoding, channel, near))
        return out

    def setup(self) -> None:
        self.warmup_systems = self.systems(WARMUP_INDEX)

    def warmup(self) -> None:
        label, encoding, channel, near = self.warmup_systems[0]
        analysis.classify(encoding, channel)
        analysis.build_correction(encoding, channel)
        analysis.classify(encoding, near)

    @staticmethod
    def _check_preserved(r) -> list[str]:
        problems = [f"{k} is False" for k in ("preserved", "correctable", "noiseless_certificate")
                    if not getattr(r, k)]
        return problems + report_implication_problems(r)

    @staticmethod
    def _check_rejected(r) -> list[str]:
        problems = [] if not r.preserved else ["near-miss accepted as preserved"]
        return problems + report_implication_problems(r)

    def cycle(self, rec: Recorder, index: int) -> None:
        with rec.tracer.paused():
            systems = self.systems(index)
        for label, encoding, channel, near in systems:
            rec.op(f"classify {label}", lambda: analysis.classify(encoding, channel),
                   self._check_preserved)

            def fixed_problems(recovery):
                ok, residual = analysis.is_fixed(encoding, channels.compose(recovery, channel))
                return [] if ok else [f"code not fixed by recovery (residual {residual:.3e})"]

            rec.op(f"correct {label}", lambda: analysis.build_correction(encoding, channel),
                   fixed_problems)
            rec.op(f"reject {label}", lambda: analysis.classify(encoding, near),
                   self._check_rejected)

    def working_set(self) -> dict[str, int]:
        return {f"superoperator {l}": _superop_bytes(s * f + r)
                for l, (s, f, r) in zip(self.labels, self.rungs)}


# -- simulate-d20 ------------------------------------------------------------

SIM_DIMS = (4, 4, 4)
SIM_ROUNDS = 20
SIM_NOISE_WEIGHT = 0.02
# estimate_epsilon takes about 1/30 of simulate_iterated's time; running it
# several times per task (each with its own sampling seed) gives it enough
# samples per run for a steady mean.
EPSILON_PER_TASK = 4


class SimulateD20(Workload):
    """Iterated noise-plus-recovery on one d_P = 20 system, then its ε bracket."""

    name = "simulate-d20"
    op_kinds = ("simulate",)
    aux_kinds = ("epsilon",)
    named = {
        "simulate_p50_s": (("simulate",), "p50"),
        "simulate_tail_s": (("simulate",), "tail"),
        "epsilon_p50_s": (("epsilon",), "p50"),
    }

    def __init__(self, seed: int, workdir: str, dims=SIM_DIMS, rounds=SIM_ROUNDS):
        super().__init__(seed, workdir)
        self.dims = dims
        self.rounds = rounds

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        encoding, exact = sampling.random_preserved_system(*self.dims, rng)
        self.encoding = encoding
        self.recovery = analysis.build_correction(encoding, exact)
        stray = sampling.random_channel(encoding.dim_physical, rng)
        self.noise = channels.convex_mix([1.0 - SIM_NOISE_WEIGHT, SIM_NOISE_WEIGHT], [exact, stray])
        loop = channels.compose(self.recovery, self.noise)
        self.loop_kraus = len(loop.kraus)
        self.composite = loop.superoperator() @ encoding.superoperator()

    def _initial_state(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        return self.encoding.encode(sampling.random_density(self.encoding.dim_logical, rng))

    def _task(self, rec: Recorder, index: int) -> None:
        with rec.tracer.paused():
            rho0 = self._initial_state(index)
        trace = rec.op(
            "simulate",
            lambda: robustness.simulate_iterated(
                self.noise, self.recovery, rho0, self.rounds, encoding=self.encoding),
            self._check_iterates,
        )
        for j in range(EPSILON_PER_TASK):
            est = rec.op(
                "epsilon",
                lambda: robustness.estimate_epsilon(
                    self.composite, self.encoding, seed=index * EPSILON_PER_TASK + j),
                lambda e: [] if e.epsilon <= e.upper_bound
                else [f"witness {e.epsilon:.6g} exceeds upper bound {e.upper_bound:.6g}"],
            )
        if trace is not None and est is not None:
            with rec.tracer.paused():
                ok, margin = robustness.check_prop3_bound(trace, est.upper_bound)
            rec.verdict("prop3 bound", [] if ok else [f"violated (margin {margin:.3e})"])

    @staticmethod
    def _check_iterates(trace) -> list[str]:
        problems = []
        for n, s in enumerate(trace.states):
            herm = float(np.abs(s - s.conj().T).max())
            tr = abs(complex(np.trace(s)) - 1.0)
            if herm > 1e-9 or tr > 1e-9:
                problems.append(f"iterate {n}: hermiticity defect {herm:.2e}, trace defect {tr:.2e}")
                break
        return problems

    def warmup(self) -> None:
        self._task(Recorder(), WARMUP_INDEX)

    def cycle(self, rec: Recorder, index: int) -> None:
        self._task(rec, index)

    def working_set(self) -> dict[str, int]:
        d = self.dims[0] * self.dims[1] + self.dims[2]
        return {
            "superoperator d_P=20": _superop_bytes(d),
            "loop Kraus stack": getattr(self, "loop_kraus", 0) * d * d * 16,
        }


WORKLOADS = {w.name: w for w in (PaperCli, ClassifyLadder, SimulateD20)}
