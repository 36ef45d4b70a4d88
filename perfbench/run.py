"""End-to-end benchmark of the BAYWATCH funnel on its default configuration.

Usage (from the repository root)::

    python3 perfbench/run.py --workload month-window --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One invocation builds the workload's inputs from ``--seed`` in a child
process, then runs closed-loop, one run at a time, until ``--seconds``
have passed.  Each iteration times a cold set-up (pipeline or runner,
LM scorer training, worker pool), then builds a fresh pipeline or
runner, times it from opening the input to the ranked report, and
checks the report.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median set-up, ``run_s`` the median run and
``events_per_s`` the throughput of the median run; the human-readable
lines also give the fastest and slowest run and the sample count.  On
a shared 2-core host the same run takes up to twice as long in
contended spells of tens of seconds, so an invocation runs for 50 s
and sets up before every run: each median then spans several spells.

With ``--trace 1`` it alternates untraced and traced runs and reports
the per-layer metrics: each layer's self time and counts from the
traced runs (see ``perfbench/layertrace.py``), the time no layer
accounts for, and the tracing overhead.

Human-readable lines come first, including ``error_rate`` and
``period_err``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record of the invocation — samples, input digest, host and commit
fingerprint, and for traced runs the spans — goes to ``.perfbench_out/``.
``perfbench/compare.py`` summarises and compares those records.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: No new run starts once this much wall time has passed since launch,
#: however slow the runs are, so an invocation ends well within 180 s.
HARD_LIMIT_S = 140.0

STARTED = time.perf_counter()


# -- host and commit fingerprint --------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> Dict[str, Any]:
    """Host class and commit a result was measured on."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "commit": {"git_sha": _git_sha(ROOT), "src_sha256": digest.hexdigest()},
    }


# -- peak resident memory ---------------------------------------------------------


def _hwm_kb(pid: str) -> int:
    """Peak resident set (VmHWM) of a process, in KiB; 0 if it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children() -> List[str]:
    mine = str(os.getpid())
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if fields and fields[1] == mine:
            out.append(stat.parent.name)
    return out


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count, so the next reading covers one run."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes, in MiB."""
    if not Path("/proc/self/status").exists():
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return (_hwm_kb("self") + sum(_hwm_kb(pid) for pid in _children())) / 1024.0


# -- measurement ------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _definitions() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _generate(workload: str, seed: int, inputs: Path) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(inputs)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=HARD_LIMIT_S,
    )
    return time.perf_counter() - started


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    """Generate, then run closed-loop for ``seconds``; return the record."""
    import workloads as wl
    from layertrace import ROOT as ROOT_LAYER, Tracer, installed, layer_metrics

    inputs, scratch = work / "inputs", work / "scratch"
    scratch.mkdir(parents=True)
    generate_s = _generate(workload, seed, inputs)
    digest = wl.input_digest(inputs)
    bench = wl.Workload(workload, inputs, scratch)

    setups: List[float] = []
    runs: List[float] = []
    traced_runs: List[float] = []
    rss: List[float] = []
    layers: List[Dict[str, float]] = []
    errors: List[str] = []
    reference: Optional[str] = None
    quality = None
    events = 0
    last_tracer = None
    attempted = 0

    measure_start = time.perf_counter()
    try:
        while True:
            traced = trace and attempted % 2 == 1
            attempted += 1
            iteration_start = time.perf_counter()
            tracer = Tracer() if traced else None
            try:
                t0 = time.perf_counter()
                bench.setup()
                setups.append(time.perf_counter() - t0)
                bench.prepare()
                gc.collect()
                reset_peak_rss()
                if tracer is None:
                    t0 = time.perf_counter()
                    outcome = bench.run()
                    run_s = time.perf_counter() - t0
                else:
                    with installed(tracer):
                        root = tracer.enter(ROOT_LAYER)
                        t0 = time.perf_counter()
                        outcome = bench.run()
                        run_s = time.perf_counter() - t0
                        tracer.exit(root)
                peak = peak_rss_mb()
            except Exception as exc:  # a failed run is counted, not fatal
                errors.append(f"run {attempted}: {type(exc).__name__}: {exc}")
            else:
                digest_run = wl.report_digest(outcome.report)
                score = wl.score(outcome.report, bench.truth)
                if reference is None and not score.failures:
                    reference, quality, events = digest_run, score, outcome.events
                if score.failures:
                    errors.append(f"run {attempted}: " + "; ".join(score.failures))
                elif digest_run != reference:
                    errors.append(f"run {attempted}: report differs from the first run's")
                else:
                    (traced_runs if traced else runs).append(run_s)
                    rss.append(peak)
                    if tracer is not None:
                        layer = layer_metrics(tracer)
                        if workload == "month-window":
                            layer["summary_store.bytes"] = bench.store_bytes()
                        layers.append(layer)
                        last_tracer = tracer
            now = time.perf_counter()
            iteration_s = now - iteration_start
            enough = now - measure_start >= seconds and (
                not trace or (runs and traced_runs)
            )
            if enough or now - STARTED + iteration_s > HARD_LIMIT_S:
                break
    finally:
        bench.close()

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "input_sha256": digest,
        "generate_s": generate_s,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "events": events,
        "quality": None if quality is None else {
            "beacon_recall": quality.beacon_recall,
            "report_precision": quality.report_precision,
            "period_err": quality.period_err,
            "problems": quality.problems,
        },
        "samples": {
            "setup_s": setups,
            "run_s": runs,
            "traced_run_s": traced_runs,
            "peak_rss_mb": rss,
        },
        "layers": layers,
        "spans": last_tracer.spans if last_tracer is not None else [],
    }


def metrics_of(record: Dict[str, Any], definitions: Dict[str, Any]) -> Dict[str, Any]:
    """The metrics of one invocation, by the names and units of BENCHMARK.json."""
    samples = record["samples"]
    run_s = _median(samples["run_s"])
    if record["trace"]:
        kind = "per_layer"
        values = {
            m["name"]: _median([layer.get(m["name"], 0.0) for layer in record["layers"]])
            for m in definitions[kind]
        }
        values["trace_overhead_s"] = _median(samples["traced_run_s"]) - run_s
    else:
        kind = "end_to_end"
        quality = record["quality"] or {
            "beacon_recall": 0.0, "report_precision": 0.0, "period_err": 1.0,
        }
        attempted, failed = record["attempted"], record["failed"]
        values = {
            "setup_s": _median(samples["setup_s"]),
            "run_s": run_s,
            "events_per_s": record["events"] / run_s if run_s else 0.0,
            "peak_rss_mb": _median(samples["peak_rss_mb"]),
            "beacon_recall": quality["beacon_recall"],
            "report_precision": quality["report_precision"],
            # A good run has (near) zero period error and no errors, and a
            # relative change from 0 is undefined, so both are reported as
            # complements; the human-readable lines also print them as is.
            "period_accuracy": 1.0 - quality["period_err"],
            "success_rate": (attempted - failed) / attempted,
        }
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in definitions[kind]
    }


def _human(record: Dict[str, Any], metrics: Dict[str, Any], fp: Dict[str, Any]) -> None:
    host, commit = fp["host"], fp["commit"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"runs={len(record['samples']['run_s'])}+{len(record['samples']['traced_run_s'])} "
        f"input=sha256:{record['input_sha256'][:16]} generate={record['generate_s']:.2f}s"
    )
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
        f"numpy={host['numpy']} scipy={host['scipy']} "
        f"commit={commit['git_sha'] or 'n/a'} src=sha256:{commit['src_sha256'][:16]}"
    )
    rows = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not record["trace"]:
        quality = record["quality"] or {"period_err": 1.0}
        rows["error_rate"] = (record["failed"] / record["attempted"], "ratio")
        rows["period_err"] = (quality["period_err"], "ratio")
        runs = record["samples"]["run_s"]
        rows[f"run_s min of {len(runs)}"] = (min(runs, default=0.0), "s")
        rows[f"run_s max of {len(runs)}"] = (max(runs, default=0.0), "s")
    for name, (value, unit) in rows.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    for error in record["errors"]:
        print(f"  FAILED {error}")
    if record["quality"] and record["quality"]["problems"]:
        print("  CHECK " + "; ".join(record["quality"]["problems"]))


def run_one(args: argparse.Namespace) -> int:
    definitions = _definitions()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another invocation is still using it
            pass
    metrics = metrics_of(record, definitions)
    fp = fingerprint()
    record["fingerprint"] = fp
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    _human(record, metrics, fp)
    correct = (
        record["failed"] == 0
        and bool(record["samples"]["run_s"])
        and record["quality"] is not None
        and not record["quality"]["problems"]
    )
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process."""
    import workloads as wl

    combined = {}
    for workload in wl.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=3 * HARD_LIMIT_S,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"{workload}: exited {child.returncode}", file=sys.stderr)
            return 1
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
