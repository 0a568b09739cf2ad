"""tniso benchmark: one workload, one run, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload classify-ladder --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` installs the layer tracer and reports the per-layer metrics.
A human-readable table goes to standard output first; the last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``. The full
record of the run (machine, versions, every metric with its sample count
and tail percentile, failures, trace breakdown) is written under
``perfbench/out/``. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-ups timed per run, spread evenly over it; the first one sets up the
# measured workload, the others set up fresh instances between cycles.
SETUP_SAMPLES = 15
# The probe's time on an idle reference machine (2-vCPU Xeon VM, see
# README.md). ``setup_s`` is given in seconds at this probe speed.
PROBE_REF_S = 5e-3

# The result line's metrics. Latencies are geometric means across operation
# kinds of each kind's mean, divided by the mean time of a fixed probe
# kernel timed before every operation of the same run (unit "probe"). On a
# shared machine, neighbours slow the process by up to 2x for tens of
# milliseconds at a time, for a share of the run that changes from run to
# run. Means of the operations and of the probe both grow in proportion to
# that share, whether an operation is shorter or longer than a burst, so
# their ratio keeps what the code costs; medians instead jump between the
# slow and the fast mode. ``setup_s`` is the mean set-up time scaled the
# same way. Latencies in seconds are printed and recorded.
END_TO_END = {
    "setup_s": "s",
    "op_mean_rel": "probe",
    "aux_mean_rel": "probe",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _single_thread_blas() -> int:
    """Run BLAS and OpenMP on one thread, which never exceeds ``nproc``.

    One client runs one operation at a time, and the matrices are small
    (at most 400 x 400), so extra BLAS threads mostly spin and add noise
    from the neighbouring core. Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def _import_package():
    """Import tniso from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tniso" / "__init__.py").is_file():
        raise SystemExit(f"error: no tniso sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import tniso

    if Path(tniso.__file__).resolve().parent != (src / "tniso").resolve():
        raise SystemExit(f"error: imported tniso from {tniso.__file__}, not from {src}")
    return tniso


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_hash() -> str | None:
    """HEAD's commit from the .git directory, when the checkout has one."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tniso").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _caches() -> dict[str, int]:
    """Data and unified cache sizes of CPU 0, in bytes, keyed L1d/L2/L3."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if not (level and kind and size) or kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        out[f"L{level}" + ("d" if kind == "Data" else "")] = int(size.rstrip("KMG")) * scale
    return out


def describe_machine(blas_threads: int) -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": _nproc(),
        "cpu_model": cpu,
        "caches_bytes": _caches(),
        "blas": blas_name,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_hash": _git_hash(),
        "source_digest": _source_digest(),
    }


def _measure(workload, rec, seconds: float, make) -> int:
    """Run whole cycles, at least one, until ``seconds`` have passed.

    Between cycles, set up fresh instances so that ``SETUP_SAMPLES`` set-ups
    spread evenly over the run; any still missing are timed at the end.
    """
    t0 = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - t0 < seconds:
        workload.cycle(rec, cycles)
        rec.end_cycle()
        cycles += 1
        due = 1 + int((SETUP_SAMPLES - 1) * (time.perf_counter() - t0) / max(seconds, 1e-9))
        while len(rec.setups) < min(due, SETUP_SAMPLES):
            rec.time_setup(make)
    while len(rec.setups) < SETUP_SAMPLES:
        rec.time_setup(make)
    return cycles


def _untraced_baseline(workload: str, seed: int, seconds: float) -> dict | None:
    """An untraced record of the same workload and run length: same seed, else newest."""
    records = sorted(OUT.glob(f"{workload}-seed*-trace0.json"),
                     key=lambda p: (p.name == f"{workload}-seed{seed}-trace0.json", p.stat().st_mtime))
    for path in reversed(records):
        record = json.loads(path.read_text())
        if record["seconds"] == seconds:
            return record
    return None


def run(args) -> int:
    blas_threads = _single_thread_blas()
    tniso = _import_package()
    sys.path.insert(0, str(HERE))
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tracer = None
    try:
        if args.trace:
            tracer = tracer_mod.Tracer()
            tracer.install(tniso)
        rec = workloads.Recorder(tracer)
        make = lambda: workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload = rec.time_setup(make)
        with rec.tracer.paused():
            workload.warmup()
        cycles = _measure(workload, rec, args.seconds, make)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    s = rec.samples
    probe = statistics.fmean(rec.probe)
    named = {"setup_s": {
        "value": PROBE_REF_S * statistics.fmean(rec.setups) / probe, "unit": "s",
        "raw_mean_s": statistics.fmean(rec.setups), "runs_s": rec.setups,
    }}
    for name, (kinds, how) in workload.named.items():
        named[name] = workloads.latency_stat(s, kinds, how)
    named["cycle_p50_s"] = {"value": statistics.median(s["cycle"]), "unit": "s"}
    named["probe_mean_s"] = {"value": probe, "unit": "s", "samples": len(rec.probe)}
    named["probe_p50_s"] = {"value": statistics.median(rec.probe), "unit": "s"}
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    named["failed_fraction"] = {"value": rec.failed / max(rec.attempted, 1), "unit": "failed/attempted"}
    end_to_end = {
        "setup_s": named["setup_s"]["value"],
        "op_mean_rel": workloads.geomean_across_kinds(s, workload.op_kinds, statistics.fmean) / probe,
        "aux_mean_rel": workloads.geomean_across_kinds(s, workload.aux_kinds, statistics.fmean) / probe,
        "peak_rss_mb": peak_rss_mb,
    }
    machine = describe_machine(blas_threads)
    caches = machine["caches_bytes"]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "machine": machine,
        "working_set_bytes": {
            k: {"bytes": v, "vs_L2": v / caches["L2"] if "L2" in caches else None,
                "vs_L3": v / caches["L3"] if "L3" in caches else None}
            for k, v in workload.working_set().items()
        },
        "end_to_end": end_to_end,
        "named": named,
        "per_kind": {k: {"n": len(v), "min_s": min(v), "p50_s": statistics.median(v), "samples_s": v}
                     for k, v in sorted(s.items())},
        "probe_samples_s": rec.probe,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures[:50],
    }
    stem = f"{workload.name}-seed{args.seed}"
    if tracer is not None:
        metrics = tracer.per_layer_metrics()
        units = {k: u for k, (u, _) in tracer_mod.PER_LAYER.items()}
        record["per_layer"] = metrics
        record["per_layer_units"] = units
        record["breakdown"] = tracer.breakdown()
        baseline = _untraced_baseline(workload.name, args.seed, args.seconds)
        if baseline is not None:
            base = baseline["end_to_end"]
            record["trace_overhead_vs_seed"] = baseline["seed"]
            record["trace_overhead"] = {k: end_to_end[k] / base[k] - 1.0 for k in END_TO_END
                                        if base.get(k)}
        tracer.write_spans(str(OUT / f"{stem}.spans.json.gz"))
    else:
        metrics = end_to_end
        units = END_TO_END
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    _print_table(record)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_table(record) -> None:
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} cycles={record['cycles']} "
          f"trace={record['trace']} nproc={m['nproc']} blas={m['blas']} x{m['blas_threads']} "
          f"numpy={m['numpy']} python={m['python']} git={m['git_hash']} src={m['source_digest']}")
    print("# result metrics (latency means in multiples of the probe's mean)")
    for name, value in record["end_to_end"].items():
        print(f"{name:<24}{value:<14.6g}{END_TO_END[name]}")
    print("# latency distribution, by operation")
    for name, stat in record["named"].items():
        extra = f"  (p{stat['percentile']:.1f} of {stat['samples']})" if "percentile" in stat else ""
        print(f"{name:<24}{stat['value']:<14.6g}{stat['unit']}{extra}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name:<48}{value:<14.6g}{record['per_layer_units'][name]}")
    for name, value in record.get("trace_overhead", {}).items():
        print(f"trace overhead {name:<14}{value:+.1%}")
    for label, top in record.get("breakdown", {}).items():
        print(f"{label}: " + ", ".join(f"{t['function']} {t['share']:.0%}" for t in top[:3]))
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    # turn SIGTERM into an exit so the run's scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(_parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
