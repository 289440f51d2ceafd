#!/usr/bin/env python3
"""Parent/change pairs of one e2e workload (``make e2e-ab``).

``make e2e-ab BASE=<rev> WORKLOAD=<name> [SEEDS=0,1] [OUT=file.json]``

The rule every performance claim here is held to (choosing-metrics guide,
section 8; ``benchmarks/e2e/README.md``): run the registered benchmark
command on the parent commit and on the change at least ten times each,
alternating which side goes first, and claim a gain only when the change
wins nine tenths of the pairs and the medians differ by more than the
distance between the parent's own quartiles.

``BASE`` is exported with ``git archive`` into ``base/`` of a temporary
directory (no state is left in ``.git``); the change — this working
tree's tracked and untracked-unignored files, as they are at start-up —
is copied into its sibling ``change/``.  Both sides thus run from fresh
directories of the same depth with no bytecode cache, so an A/A run
(``BASE=HEAD`` on a clean tree) reads ``same``; running the change in
place measured it 5–10 % slower than an export of the same code.  Each
side runs the command ``BENCHMARK.json`` registers from its own copy, so
each measures its own copy of the program with its own copy of the
benchmark.  Per seed and end-to-end metric the script prints each side's
quartiles, the pair wins and a verdict, then whether the golden values
and exact counts of the two sides' first passes are identical
(``compare.exact_differences``).  Exit status 1 when an exact value
differs, a run's correctness gate failed or a metric is worse than its
bound.

Not a ``bench_*.py``: ``make bench`` must not collect a 15-minute run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402
import stats  # noqa: E402

#: Share of the pairs the change must win for a gain (ties count for
#: neither side).
WIN_SHARE = 0.9


def export(rev: str, target: pathlib.Path) -> None:
    """The committed files of ``rev``, unpacked under ``target``."""
    target.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive,
                   check=True)


def export_worktree(target: pathlib.Path) -> None:
    """The working tree's tracked and untracked-unignored files, copied
    under ``target`` (tracked files deleted from the tree are skipped)."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout.decode()
    for name in sorted(set(filter(None, listing.split("\0")))):
        source = ROOT / name
        if source.is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def run_once(checkout: pathlib.Path, benchmark: dict, workload: str,
             seed: int) -> dict:
    """One run of the registered command; the contract line plus the record."""
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    if not done.stdout.strip():
        raise SystemExit(f"{checkout}: {' '.join(command)} printed nothing "
                         f"(exit {done.returncode}):\n{done.stderr}")
    contract = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "benchmarks" / "e2e" / "out"
                         / f"run-{workload}-seed{seed}.json").read_text())
    return {"correct": contract["correct"],
            "attempted": contract["attempted"], "failed": contract["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in contract["metrics"].items()},
            "record": record}


def judge(metric: dict, base: List[float], change: List[float]) -> dict:
    """Quartiles, pair wins and the verdict for one end-to-end metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    base_q, change_q = stats.quartiles(base), stats.quartiles(change)
    gain = sign * (change_q[1] - base_q[1])
    wide = max(stats.spread(base), stats.spread(change)) > metric["bound"]
    overlap = not (max(base) < min(change) or max(change) < min(base))
    if wins >= WIN_SHARE * len(base) and gain > base_q[2] - base_q[0]:
        verdict = "better"
    elif wide and overlap:
        verdict = "unresolved"
    elif -gain > metric["bound"] * base_q[1]:
        verdict = "worse"
    else:
        verdict = "same"
    return {"base": base, "change": change, "base_quartiles": base_q,
            "change_quartiles": change_q, "wins": wins, "losses": losses,
            "ratio": change_q[1] / base_q[1], "verdict": verdict}


def run_seed(checkouts: Dict[str, pathlib.Path], benchmark: dict,
             workload: str, seed: int, pairs: int) -> dict:
    runs: Dict[str, List[dict]] = {"base": [], "change": []}
    for pair in range(pairs):
        for side in (("base", "change") if pair % 2 == 0
                     else ("change", "base")):
            run = run_once(checkouts[side], benchmark, workload, seed)
            runs[side].append(run)
            print(f"  seed {seed} pair {pair + 1:2d} {side:6s} "
                  + "  ".join(f"{name}={value:.6g}"
                              for name, value in run["metrics"].items()),
                  flush=True)
    rows = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        rows[name] = judge(metric,
                           [run["metrics"][name] for run in runs["base"]],
                           [run["metrics"][name] for run in runs["change"]])
    first = {side: runs[side][0]["record"] for side in runs}
    return {
        "seed": seed, "pairs": pairs, "metrics": rows,
        "exact_differences": compare.exact_differences(
            first["base"], first["change"]),
        "golden": {side: {k: v for k, v in
                          first[side]["passes"][0]["golden"].items()
                          if k != "keys"} for side in first},
        "counts": first["change"]["passes"][0]["counts"],
        "all_correct": all(run["correct"] for side in runs
                           for run in runs[side]),
        "failed": {side: sum(run["failed"] for run in runs[side])
                   for side in runs},
        "attempted": {side: sum(run["attempted"] for run in runs[side])
                      for side in runs},
    }


def show(workload: str, result: dict) -> None:
    print(f"== {workload}  seed {result['seed']}  {result['pairs']} pairs "
          "(quartiles q1 / median / q3)")
    for name, row in result["metrics"].items():
        base_q = " / ".join(f"{q:.6g}" for q in row["base_quartiles"])
        change_q = " / ".join(f"{q:.6g}" for q in row["change_quartiles"])
        print(f"{name:14s} base {base_q:32s} change {change_q:32s} "
              f"{row['ratio']:.3f}x base  wins {row['wins']}/{result['pairs']}"
              f"  {row['verdict']}")
    differing = result["exact_differences"]
    print("golden values and exact counts: "
          + (f"DIFFER {differing}" if differing else "identical")
          + f"; gates {'passed' if result['all_correct'] else 'FAILED'}; "
          f"failed ops base {result['failed']['base']} "
          f"change {result['failed']['change']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0,1",
                        help="comma-separated workload seeds (default 0,1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="also write the results here as JSON")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    base_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.base], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="e2e-ab-") as tmp:
        checkouts = {side: pathlib.Path(tmp) / side
                     for side in ("base", "change")}
        export(args.base, checkouts["base"])
        export_worktree(checkouts["change"])
        results = [run_seed(checkouts, benchmark, args.workload, int(seed),
                            args.pairs)
                   for seed in args.seeds.split(",")]
    for result in results:
        show(args.workload, result)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "base": base_rev,
             "command": benchmark["command"],
             "run_seconds": benchmark["run_seconds"], "seeds": results},
            indent=1, sort_keys=True) + "\n")
    bad = any(result["exact_differences"] or not result["all_correct"]
              or any(row["verdict"] == "worse"
                     for row in result["metrics"].values())
              for result in results)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
