"""Summarise benchmark records and compare two summaries.

Usage (from the repository root)::

    python3 perfbench/compare.py summarize .perfbench_out/*.json > summary.json
    python3 perfbench/compare.py diff perfbench/baseline.json summary.json

``summarize`` folds the per-invocation records that ``perfbench/run.py``
writes into one summary: per workload and metric, the median and
quartiles over seeds, plus every seed's input digest and the host and
commit fingerprints.  ``diff`` prints, per workload and end-to-end
metric, both medians, the change, and a verdict against the bound in
``BENCHMARK.json``.  A metric whose spread between seeds is wider than
its bound is reported as unresolved, not as unchanged.

Numbers measured on different host classes do not compare: ``diff``
and ``summarize`` print a loud warning whenever the host fingerprints
involved differ.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]


def _warn_hosts(hosts: List[Dict[str, Any]], what: str) -> None:
    distinct = {json.dumps(h, sort_keys=True) for h in hosts}
    if len(distinct) > 1:
        bar = "!" * 72
        print(bar, file=sys.stderr)
        print(f"WARNING: {what} come from {len(distinct)} different host "
              "fingerprints; their numbers do not compare:", file=sys.stderr)
        for host in sorted(distinct):
            print(f"  {host}", file=sys.stderr)
        print(bar, file=sys.stderr)


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(paths: Sequence[str]) -> Dict[str, Any]:
    records = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    _warn_hosts([r["fingerprint"]["host"] for r in records], "the records")
    workloads: Dict[str, Any] = {}
    for record in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = workloads.setdefault(record["workload"], {"inputs": {}, "metrics": {}})
        entry["inputs"][str(record["seed"])] = record["input_sha256"]
        kind = "per_layer" if record["trace"] else "end_to_end"
        for name, metric in record["metrics"].items():
            slot = entry["metrics"].setdefault(
                name, {"kind": kind, "unit": metric["unit"], "seeds": [], "values": []}
            )
            slot["seeds"].append(record["seed"])
            slot["values"].append(metric["value"])
    for entry in workloads.values():
        for slot in entry["metrics"].values():
            slot.update(_quartiles(slot["values"]))
    def distinct(part: str) -> List[Dict[str, Any]]:
        seen = {json.dumps(r["fingerprint"][part], sort_keys=True) for r in records}
        return [json.loads(item) for item in sorted(seen)]

    return {"hosts": distinct("host"), "commits": distinct("commit"), "workloads": workloads}


def diff(base: Dict[str, Any], cand: Dict[str, Any]) -> int:
    """Print the comparison; returns the number of metrics out of bound."""
    _warn_hosts(base["hosts"] + cand["hosts"], "the two summaries")
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = 0
    print(f"{'workload':14s} {'metric':18s} {'base':>12s} {'cand':>12s} {'change':>8s}  verdict")
    for workload, entry in sorted(cand["workloads"].items()):
        before = base["workloads"].get(workload, {}).get("metrics", {})
        for metric in definitions["end_to_end"]:
            name = metric["name"]
            if name not in entry["metrics"] or name not in before:
                continue
            b, c = before[name], entry["metrics"][name]
            change = (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            loss = change if metric["better"] == "lower" else -change
            spread = max(
                (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (b, c)
            )
            if loss > metric["bound"]:
                verdict = "WORSE"
                worse += 1
            elif spread > metric["bound"]:
                verdict = "unresolved (spread {:.3f} > bound)".format(spread)
            elif loss < -spread:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:14s} {name:18s} {b['median']:>12.5g} {c['median']:>12.5g} "
                  f"{change:>+8.2%}  {verdict}")
    return worse


def _compact(text: str) -> str:
    """Put each innermost list and object of indented JSON on one line."""
    def join(match: "re.Match[str]") -> str:
        # json.dumps escapes newlines inside strings, so every newline
        # here is layout.
        return re.sub(r"\n\s*", " ", match.group(0))

    return re.sub(r"\{[^{}]*\}", join, re.sub(r"\[[^\[\]{}]*\]", join, text))


def main(argv: Sequence[str]) -> int:
    if len(argv) >= 2 and argv[0] == "summarize":
        print(_compact(json.dumps(summarize(argv[1:]), indent=1)))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        base, cand = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        return 1 if diff(base, cand) else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
