#!/usr/bin/env python3
"""e2e benchmark driver: whole-run workloads with per-layer attribution.

Two ways to run it, from the repository root:

``python3 benchmarks/e2e/run.py``
    every workload, each in a fresh interpreter: untraced passes for the
    end-to-end metrics, then one traced pass for the per-layer metrics;
    prints every metric by name with its unit, writes
    ``benchmarks/e2e/out/e2e-seed<N>.json`` and exits non-zero when any
    correctness gate failed.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload (the form ``BENCHMARK.json`` registers); the last line
    of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import stats  # noqa: E402
import trace as tracing  # noqa: E402

#: Passes per untraced run, unless ``--passes`` fixes the number.
MIN_PASSES = 3
#: With MIN_PASSES done, start no pass that would end later than this
#: into the run: the driver allows a run 30 s on average, set-up included.
RUN_BUDGET_S = 26.0
SMOKE_PASSES = 2


def _import_program() -> None:
    """Put the program under test on the path, or leave without a result.

    ``workloads`` imports it, so that module is imported only after this.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"e2e: the program under test is missing ({SRC / 'repro'}); "
            "run from a checkout of the repository\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


@dataclass
class Pass:
    """One environment built and one pass measured on it."""

    setup_s: float
    wall_s: float
    cpu_s: float
    outcome: object


def run_pass(workload, tracer=None) -> Pass:
    gc.collect()
    started = time.perf_counter()
    ctx = workload.setup()
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.end_phase("setup")
    cpu_started = time.process_time()
    started = time.perf_counter()
    outcome = workload.run(ctx)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    if tracer is not None:
        tracer.end_phase("pass")
    workload.teardown(ctx, outcome)
    return Pass(setup_s, wall_s, cpu_s, outcome)


# ------------------------------------------------------------------ reporting

def environment_record() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _golden_mismatches(passes: List[Pass], label: str) -> List[str]:
    first = passes[0].outcome.golden
    return [f"{label}: pass {index} differs from pass 0 in "
            f"{sorted(k for k in first if first[k] != p.outcome.golden.get(k))}"
            for index, p in enumerate(passes[1:], start=1)
            if p.outcome.golden != first]


def end_to_end(workload, passes: List[Pass]) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric this workload has, with its spread."""
    from workloads import READ_OPS, WRITE_OPS

    units = {name: unit for name, unit, *_ in
             metrics.END_TO_END + metrics.WORKLOAD_END_TO_END}
    out: Dict[str, Dict[str, object]] = {}

    def per_pass(name: str, values: List[float]) -> None:
        out[name] = dict(stats.summarize(values), unit=units[name],
                         samples=len(values))
        out[name]["value"] = out[name]["median"]

    per_pass("setup_s", [p.setup_s for p in passes])
    per_pass("wall_s", [p.wall_s for p in passes])
    per_pass("ops_per_s", [p.outcome.ops / p.wall_s for p in passes])
    per_pass("cpu_us_per_op",
             [p.cpu_s * 1e6 / p.outcome.ops for p in passes])
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": units["peak_rss_mb"], "samples": 1}

    # A percentile every pass can support on its own is the median of the
    # passes' percentiles; otherwise the passes pool (each replays the
    # same requests).  Either way the sample count is reported.
    has_latencies = any(p.outcome.latencies for p in passes)
    for prefix, ops in (("read", READ_OPS), ("write", WRITE_OPS)):
        by_pass = [[s for op in ops for s in p.outcome.latencies.get(op, ())]
                   for p in passes]
        pooled = [s for samples in by_pass for s in samples]
        for pct in (50, 99):
            name = f"{prefix}_p{pct}_us"
            each = [stats.percentile_or_none(samples, pct)
                    for samples in by_pass]
            if pooled and None not in each:
                per_pass(name, each)
                out[name]["samples"] = len(pooled)
            elif stats.percentile_or_none(pooled, pct) is not None:
                out[name] = {"value": stats.percentile(pooled, pct),
                             "unit": units[name], "samples": len(pooled)}
    if has_latencies:
        per_pass("stall_frac", [
            stats.stall_fraction(p.outcome.latencies,
                                 p.wall_s * 1e6 * workload.clients)
            for p in passes])
    for name in ("write_amp", "space_amp"):
        if name in passes[0].outcome.ratios:
            per_pass(name, [p.outcome.ratios[name] for p in passes])
    attempted = sum(p.outcome.ops for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    out["fail_frac"] = {"value": failed / attempted, "unit": "ratio",
                        "samples": attempted}
    return out


def per_layer(tracer, workload, reference: Pass, traced: Pass
              ) -> Dict[str, float]:
    """Every per-layer metric, from the traced pass and its counters."""
    aggregates = tracer.aggregates()
    setup = tracer.aggregates("setup")
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def own(*names: str) -> float:
        return sum(aggregates.get(n, zero)["self_s"] for n in names)

    def calls(*names: str) -> float:
        return sum(aggregates.get(n, zero)["calls"] for n in names)

    def total(name: str, with_setup: bool = False) -> float:
        value = aggregates.get(name, zero)["total_s"]
        if with_setup:
            value += setup.get(name, zero)["total_s"]
        return value

    out = {name: 0.0 for name, _unit, _better in metrics.PER_LAYER}
    counts = traced.outcome.counts
    out.update({name: float(value) for name, value in counts.items()
                if name in out})
    out.update({name: float(value)
                for name, value in traced.outcome.stages.items()
                if name in out})
    layers = tracing.layer_self_seconds(aggregates)
    out.update({f"{layer}.self_s": seconds
                for layer, seconds in layers.items()})
    out.update({
        "core.learn.s": total("core.learn"),
        "core.find_fpk.s": total("core.find_fpk"),
        "core.id_prefix.s": total("core.id_prefix"),
        "core.extend.s": total("core.extend"),
        "core.classify.calls": calls("core.classify", "core.shard"),
        "core.classify.self_s": own("core.classify", "core.shard"),
        "core.shard.self_s": own("core.shard"),
        "system.get.self_s": own("system.get"),
        "system.range.self_s": own("system.range"),
        "system.put.self_s": own("system.put"),
        "system.detector.self_s": own("system.detector"),
        "lsm.get.self_s": own("lsm.get"),
        "lsm.range.self_s": own("lsm.range"),
        "lsm.charge.calls": calls("lsm.charge"),
        "lsm.charge.self_s": own("lsm.charge"),
        "lsm.put_many.s": total("lsm.put_many"),
        "lsm.flush.s": total("lsm.flush"),
        "lsm.compact.s": total("lsm.compact"),
        "lsm.compact_all.s": total("lsm.compact_all"),
        # Built during set-up on every workload but ingest.
        "lsm.bulk_load.s": total("lsm.bulk_load", with_setup=True),
        "filters.build.s": total("filters.build", with_setup=True),
        "lsm.reopen.s": total("lsm.reopen"),
        "filters.point.self_s": own("filters.point"),
        "filters.range.self_s": own("filters.range"),
        "storage.cache.self_s": own("storage.cache"),
        "storage.device.self_s": own("storage.device"),
        "storage.background.self_s": own("storage.background"),
        "server.frames": float(tracer.frames),
        "server.bytes": float(tracer.frame_bytes),
        "server.codec.self_s": own("server.codec"),
        "server.execute.self_s": own("server.execute"),
        "server.client.self_s": own("server.client"),
        "server.socket_wait.s": total("wait.socket"),
    })
    requests = counts.get("server.requests", 0)
    if requests:
        out["server.wire_us_per_req"] = (
            (total("server.client") - total("server.execute"))
            * 1e6 / requests)
    drivers = workload.driver_threads
    driver_wall = traced.wall_s * len(drivers)
    inside = tracer.root_seconds(drivers)
    out["trace.overhead_x"] = traced.wall_s / reference.wall_s
    out["trace.coverage"] = inside / driver_wall
    out["untraced.self_s"] = max(0.0, driver_wall - inside)
    # The end-to-end metrics that only some workloads have, as the
    # untraced reference pass reads them (0 where there is none).
    client = end_to_end(workload, [reference])
    out.update({f"client.{name}": float(client[name]["value"])
                for name, *_ in metrics.WORKLOAD_END_TO_END
                if name in client})
    return out


def _print_metrics(title: str, values: Dict[str, Dict[str, object]]) -> None:
    print(title)
    for name, entry in values.items():
        extra = ""
        if "spread" in entry:
            extra = (f"   [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                     f"spread {100 * entry['spread']:.1f}%  "
                     f"n={entry['samples']}]")
        elif entry.get("samples", 1) != 1:
            extra = f"   [n={entry['samples']}]"
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:6s}"
              f"{extra}")


# --------------------------------------------------------------- single runs

def result_path(args, workload: str, trace: int) -> pathlib.Path:
    """Where one workload's untraced or traced record goes."""
    kind = "trace" if trace else "run"
    suffix = "-smoke" if args.smoke else ""
    return (pathlib.Path(args.out)
            / f"{kind}-{workload}-seed{args.seed}{suffix}.json")


def untraced_run(workload, seconds: float, passes: Optional[int]) -> dict:
    run_started = time.perf_counter()
    done: List[Pass] = []
    measured = 0.0
    while True:
        done.append(run_pass(workload))
        measured += done[-1].wall_s
        if passes is not None:
            if len(done) >= passes:
                break
        elif len(done) >= MIN_PASSES:
            elapsed = time.perf_counter() - run_started
            if (measured >= seconds
                    or elapsed + elapsed / len(done) > RUN_BUDGET_S):
                break
    problems = [msg for p in done for msg in p.outcome.problems]
    problems += _golden_mismatches(done, "golden")
    return {
        "passes": done,
        "end_to_end": end_to_end(workload, done),
        "problems": problems,
    }


def traced_run(workload) -> dict:
    reference = run_pass(workload)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_pass(workload, tracer)
    problems = list(reference.outcome.problems) + list(traced.outcome.problems)
    # The traced pass must leave the simulated world untouched.
    problems += _golden_mismatches([reference, traced], "traced vs untraced")
    if workload.deterministic:
        drifted = sorted(
            name for name, value in reference.outcome.counts.items()
            if traced.outcome.counts.get(name) != value)
        if drifted:
            problems.append(f"traced vs untraced: counts differ in {drifted}")
    aggregates = tracer.aggregates()
    # At smoke sizes an attack may find no prefix to extend, so only the
    # full sizes promise that every expected span is exercised.
    silent = ([] if workload.smoke else
              tracing.silent_spans(aggregates, workload.expected_spans))
    if silent:
        problems.append(f"traced pass recorded no calls of {silent}")
    return {
        "passes": [reference, traced],
        "per_layer": per_layer(tracer, workload, reference, traced),
        "aggregates": aggregates,
        "setup_aggregates": tracer.aggregates("setup"),
        "trees": tracer.trees,
        "problems": problems,
    }


def _pass_record(p: Pass) -> dict:
    outcome = p.outcome
    return {
        "setup_s": p.setup_s, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
        "ops": outcome.ops, "failed": outcome.failed,
        "golden": outcome.golden,
        "counts": outcome.counts, "ratios": outcome.ratios,
        "stages": outcome.stages,
        "latency_samples": {op: len(s) for op, s in
                            outcome.latencies.items()},
    }


def single(args) -> int:
    """One workload, traced or not; the contract's form of the command."""
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"e2e: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    workload.prepare()
    passes = args.passes
    if passes is None and args.smoke:
        passes = SMOKE_PASSES
    if args.trace:
        result = traced_run(workload)
        reported = {name: {"value": result["per_layer"][name], "unit": unit}
                    for name, unit, _better in metrics.PER_LAYER}
        shown = reported
    else:
        result = untraced_run(workload, args.seconds, passes)
        reported = {name: {"value": result["end_to_end"][name]["value"],
                           "unit": unit}
                    for name, unit, *_ in metrics.END_TO_END}
        shown = result["end_to_end"]
    done: List[Pass] = result["passes"]
    attempted = sum(p.outcome.ops for p in done)
    failed = sum(p.outcome.failed for p in done)
    correct = not result["problems"] and failed == 0

    record = {
        "schema": 1,
        "workload": workload.name,
        "op": workload.op,
        "why": dict(metrics.WORKLOAD_WHY)[workload.name],
        "seed": args.seed,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "comparable": not args.smoke,
        "sizes": workload.sizes,
        "clients": workload.clients,
        "environment": environment_record(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": result["problems"],
        "passes": [_pass_record(p) for p in done],
    }
    record["per_layer" if args.trace else "end_to_end"] = shown
    path = result_path(args, workload.name, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        # Per-name aggregates and the sampled span trees.
        (path.parent / f"trace-{workload.name}.json").write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "aggregates": result["aggregates"],
            "setup_aggregates": result["setup_aggregates"],
            "sample_every": tracing.SAMPLE_EVERY,
            "trees": result["trees"],
        }, indent=1) + "\n")

    note = "  (smoke sizes: numbers are NOT comparable)" if args.smoke else ""
    print(f"== {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{len(done)} passes{note}")
    _print_metrics("per-layer metrics (traced pass):" if args.trace
                   else "end-to-end metrics (median of passes):", shown)
    golden = {k: v for k, v in done[0].outcome.golden.items() if k != "keys"}
    print(f"golden: {golden}")
    for problem in result["problems"]:
        print(f"FAILED GATE: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


# -------------------------------------------------------------- all workloads

def _child(args, workload: str, trace: int) -> Optional[dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", args.out]
    if args.smoke:
        command.append("--smoke")
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=str(ROOT), timeout=900)
    # Everything but the contract's closing JSON line, which the tables
    # below replace.
    lines = done.stdout.splitlines()
    print("\n".join(line for line in lines
                    if not line.startswith('{"correct"')))
    sys.stderr.write(done.stderr)
    path = result_path(args, workload, trace)
    if done.returncode not in (0, 1) or not path.is_file():
        return None
    return json.loads(path.read_text())


def everything(args) -> int:
    """Every workload, each in its own interpreter (so that ``peak_rss_mb``
    is per workload), untraced and — unless ``--no-traced`` — traced."""
    _import_program()
    names = [name for name, _why in metrics.WORKLOAD_WHY]
    runs: Dict[str, Dict[str, Optional[dict]]] = {}
    failed_gates: List[str] = []
    for name in names:
        runs[name] = {"untraced": _child(args, name, 0)}
        if args.traced:
            runs[name]["traced"] = _child(args, name, 1)
        for kind, record in runs[name].items():
            if record is None:
                failed_gates.append(f"{name} {kind}: no result")
            elif not record["correct"]:
                failed_gates += [f"{name} {kind}: {p}"
                                 for p in record["problems"] or ["failed ops"]]
    # The wire attack must extract exactly the in-process attack's keys.
    keys = {name: runs[name]["untraced"]["passes"][0]["golden"]["keys"]
            for name in ("surf_point", "remote_surf")
            if runs[name]["untraced"] is not None}
    if len(keys) == 2 and keys["surf_point"] != keys["remote_surf"]:
        failed_gates.append("remote_surf extracted a different key set "
                            "than surf_point")

    columns = names
    print("\n== end-to-end metrics, median pass per workload "
          f"(seed {args.seed}{', SMOKE: not comparable' if args.smoke else ''})")
    print(f"{'metric':16s} {'unit':6s}" + "".join(f"{c:>15s}" for c in columns))
    for name, unit, *_ in metrics.END_TO_END + metrics.WORKLOAD_END_TO_END:
        cells = []
        for column in columns:
            record = runs[column]["untraced"]
            entry = record and record["end_to_end"].get(name)
            cells.append(f"{entry['value']:>15.6g}" if entry
                         else f"{'-':>15s}")
        print(f"{name:16s} {unit:6s}" + "".join(cells))
    if args.traced:
        print("\n== per-layer metrics, traced pass per workload")
        print(f"{'metric':32s} {'unit':6s}"
              + "".join(f"{c:>15s}" for c in columns))
        for name, unit, _better in metrics.PER_LAYER:
            cells = []
            for column in columns:
                record = runs[column].get("traced")
                cells.append(f"{record['per_layer'][name]['value']:>15.6g}"
                             if record else f"{'-':>15s}")
            print(f"{name:32s} {unit:6s}" + "".join(cells))

    suffix = "-smoke" if args.smoke else ""
    path = pathlib.Path(args.out) / f"e2e-seed{args.seed}{suffix}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": 1, "seed": args.seed, "smoke": args.smoke,
        "comparable": not args.smoke,
        "environment": environment_record(),
        "failed_gates": failed_gates, "runs": runs,
    }, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    for gate in failed_gates:
        print(f"FAILED GATE: {gate}")
    return 1 if failed_gates else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload only")
    parser.add_argument("--seed", type=int, default=0,
                        help="load seed (0 while developing; 1 is held out)")
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS),
                        help="measure for at least this long (untraced)")
    parser.add_argument("--passes", type=int, default=None,
                        help="measure exactly this many passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass")
    parser.add_argument("--traced", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="all workloads: add the traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, same code paths and checks; "
                             "numbers are not comparable")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for result files")
    args = parser.parse_args(argv)
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    return single(args) if args.workload else everything(args)


if __name__ == "__main__":
    raise SystemExit(main())
