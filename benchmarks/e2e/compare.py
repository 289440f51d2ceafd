#!/usr/bin/env python3
"""Compare two e2e result files: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the change.  One row per workload x end-to-end metric with
both medians, the ratio B/A, the metric's fixed bound and a verdict:

``better`` / ``worse``
    B's median differs from A's by more than the bound.
``same``
    within the bound.
``unresolved``
    the pass-to-pass spread of either side is wider than the bound and
    the two sides' passes overlap, so the runs cannot tell.

Counts read from the program's own counters and the golden values of
each workload must be identical between two runs of one seed on
deterministic workloads; any difference is listed and fails the
comparison, as does any ``worse`` row.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: Workloads whose client threads race: counts and simulated time there
#: are close, not identical, run to run.
RACING = ("remote_surf", "served_mix")


def load(path: str) -> Dict[str, dict]:
    """workload -> untraced record, from a combined or a single-run file."""
    data = json.loads(pathlib.Path(path).read_text())
    if "runs" in data:
        return {name: kinds["untraced"] for name, kinds in data["runs"].items()
                if kinds.get("untraced")}
    if "end_to_end" in data:
        return {data["workload"]: data}
    raise SystemExit(f"{path}: neither a combined nor an untraced result file")


def bound_for(metric: str, workload: str, bound: float) -> Tuple[float, bool]:
    """(bound, absolute?) of ``metric`` on ``workload``."""
    if metric == "write_amp":
        bound = metrics.WRITE_AMP_BOUND.get(workload, bound)
    return bound, metric in metrics.ABSOLUTE_BOUNDS


def verdict(a: dict, b: dict, better: str, bound: float, absolute: bool
            ) -> str:
    """One row's verdict (see the module docstring)."""
    base, change = a["value"], b["value"]
    worsening = change - base if better == "lower" else base - change
    if not absolute and base:
        worsening /= base
    raw_a, raw_b = a.get("raw"), b.get("raw")
    if raw_a and raw_b and not absolute:
        wide = max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound
        overlap = not (max(raw_a) < min(raw_b) or max(raw_b) < min(raw_a))
        if wide and overlap:
            return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def exact_differences(a: dict, b: dict) -> List[str]:
    """Golden values and (=) counts that differ between two records."""
    if a["seed"] != b["seed"] or a["sizes"] != b["sizes"]:
        return []
    first_a, first_b = a["passes"][0], b["passes"][0]
    out = [f"golden.{key}" for key in first_a["golden"]
           if first_a["golden"][key] != first_b["golden"].get(key)]
    if a["workload"] not in RACING:
        out += [key for key in first_a["counts"]
                if first_a["counts"][key] != first_b["counts"].get(key)]
    return out


def compare(path_a: str, path_b: str) -> int:
    runs_a, runs_b = load(path_a), load(path_b)
    print(f"A (base)   = {path_a}")
    print(f"B (change) = {path_b}")
    header = (f"{'workload':14s} {'metric':15s} {'unit':6s} {'A median':>12s} "
              f"{'B median':>12s} {'B/A':>10s} {'bound':>8s}  verdict")
    print(header)
    print("-" * len(header))
    tally: Dict[str, int] = {}
    failures: List[str] = []
    for workload, _why in metrics.WORKLOAD_WHY:
        a, b = runs_a.get(workload), runs_b.get(workload)
        if a is None or b is None:
            continue
        if not (a["comparable"] and b["comparable"]):
            print(f"{workload:14s} smoke sizes: not comparable")
            continue
        for name, unit, better, bound in (metrics.END_TO_END
                                          + metrics.WORKLOAD_END_TO_END):
            entry_a = a["end_to_end"].get(name)
            entry_b = b["end_to_end"].get(name)
            if entry_a is None or entry_b is None:
                continue
            limit, absolute = bound_for(name, workload, bound)
            result = verdict(entry_a, entry_b, better, limit, absolute)
            tally[result] = tally.get(result, 0) + 1
            base = entry_a["value"]
            ratio = (f"{entry_b['value'] / base:.3f}x A" if base
                     else f"{entry_b['value'] - base:+.3g}")
            shown = f"+{limit:g}" if absolute else f"{100 * limit:g}%"
            print(f"{workload:14s} {name:15s} {unit:6s} {base:12.6g} "
                  f"{entry_b['value']:12.6g} {ratio:>10s} {shown:>8s}  "
                  f"{result}")
            if result == "worse":
                failures.append(f"{workload} {name} is worse")
        differing = exact_differences(a, b)
        if differing:
            failures.append(f"{workload}: exact values differ: {differing}")
            print(f"{workload:14s} exact counts/golden DIFFER: {differing}")
        elif a["seed"] == b["seed"]:
            print(f"{workload:14s} exact counts/golden identical")
    print("verdicts: " + ", ".join(f"{count} {name}" for name, count
                                   in sorted(tally.items())))
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    raise SystemExit(main())
