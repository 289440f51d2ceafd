"""Command-line entry point: run experiments or a custom attack demo.

Usage::

    prefix-siphoning list
    prefix-siphoning run table1 fig3
    prefix-siphoning run all
    prefix-siphoning demo --keys 20000 --filter surf-real --candidates 30000
    prefix-siphoning demo --filter rosetta --attack range
    prefix-siphoning serve --keys 8000 --port 7433
    prefix-siphoning attack --remote 127.0.0.1:7433 --connections 4
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.report import format_report

#: Filter configurations the demo can build.
DEMO_FILTERS = ("surf-real", "surf-base", "surf-hash", "pbf", "bloom",
                "rosetta", "split")


def _maybe_profile(path: Optional[str], fn):
    """Run ``fn``, under cProfile when ``path`` is set.

    Dumps the raw stats to ``path`` (loadable with :mod:`pstats` or
    snakeviz-style viewers) and prints the top 20 entries by cumulative
    time so the hot path is visible without leaving the terminal.
    """
    if not path:
        return fn()
    import cProfile
    import pstats
    profile = cProfile.Profile()
    profile.enable()
    try:
        return fn()
    finally:
        profile.disable()
        profile.dump_stats(path)
        print(f"\nprofile written to {path}; top 20 by cumulative time:")
        pstats.Stats(profile).sort_stats("cumulative").print_stats(20)


def _cmd_list() -> int:
    print("available experiments:")
    for name, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<18} {doc}")
    return 0


def _cmd_run(names: List[str]) -> int:
    if names == ["all"]:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print("run 'prefix-siphoning list' to see choices", file=sys.stderr)
        return 2
    for name in names:
        started = time.perf_counter()
        report = ALL_EXPERIMENTS[name].run()
        elapsed = time.perf_counter() - started
        print(format_report(report))
        print(f"  (ran in {elapsed:.1f}s)\n")
    return 0


def _make_filter_builder(name: str, key_width: int, suffix_bits: int = 8):
    from repro.filters import (BloomFilterBuilder, PrefixBloomFilterBuilder,
                               RosettaFilterBuilder, SplitFilterBuilder,
                               SuRFBuilder)
    if name.startswith("surf-"):
        return SuRFBuilder(variant=name.split("-", 1)[1],
                           suffix_bits=suffix_bits)
    if name == "pbf":
        return PrefixBloomFilterBuilder(prefix_len=max(1, key_width - 2))
    if name == "bloom":
        return BloomFilterBuilder(10.0)
    if name == "rosetta":
        return RosettaFilterBuilder(key_bytes=key_width,
                                    bits_per_key_per_level=8.0)
    return SplitFilterBuilder()


def _cmd_demo(args) -> int:
    from repro.core import (AttackConfig, IdealizedOracle,
                            PrefixSiphoningAttack, SurfAttackStrategy,
                            expected_bruteforce_queries_per_key)
    from repro.core.range_attack import (IdealizedRangeOracle,
                                         RangeAttackConfig,
                                         RangeDescentAttack)
    from repro.filters.surf import SuffixScheme, SurfVariant
    from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

    print(f"building: {args.keys:,} keys of {args.width} bytes behind "
          f"{args.filter} ...")
    env = build_environment(DatasetConfig(
        num_keys=args.keys, key_width=args.width, seed=args.seed,
        filter_builder=_make_filter_builder(args.filter, args.width)))

    if args.attack == "range":
        verify = "none" if args.filter in ("split", "pbf", "bloom") else "point"
        result = _maybe_profile(args.profile, RangeDescentAttack(
            IdealizedRangeOracle(env.service, ATTACKER_USER),
            RangeAttackConfig(key_width=args.width, max_keys=args.target_keys,
                              max_queries=args.candidates * 100,
                              verify_mode=verify, seed=args.seed)).run)
        keys, total = result.keys, result.total_queries
    else:
        variant = (SurfVariant(args.filter.split("-", 1)[1])
                   if args.filter.startswith("surf-") else SurfVariant.BASE)
        suffix_bits = 0 if variant is SurfVariant.BASE else 8
        strategy = SurfAttackStrategy(
            args.width, SuffixScheme(variant, suffix_bits),
            mode="truncate", seed=args.seed)
        attack = PrefixSiphoningAttack(
            IdealizedOracle(env.service, ATTACKER_USER), strategy,
            AttackConfig(key_width=args.width,
                         num_candidates=args.candidates))
        result = _maybe_profile(args.profile, attack.run)
        keys = [e.key for e in result.extracted]
        total = result.total_queries

    stored = env.key_set
    verified = sum(1 for k in keys if k in stored)
    print(f"extracted {len(keys)} keys ({verified} verified) with "
          f"{total:,} queries")
    for key in keys[:8]:
        print(f"  {key.hex()}")
    brute = expected_bruteforce_queries_per_key(args.width, args.keys)
    if keys:
        print(f"{total / len(keys):,.0f} queries/key vs {brute:,.0f} "
              f"expected for brute force")
    else:
        print(f"(the {args.filter} configuration resisted this attack)")
    return 0


def _cmd_serve(args) -> int:
    from repro.server import AsyncKVWireServer, ServerConfig, connect
    from repro.system.defense import DefensePolicy, build_defended_service
    from repro.system.ratelimit import RateLimitPolicy, RateLimitedService
    from repro.system.responses import Response, Status
    from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

    print(f"building: {args.keys:,} keys of {args.width} bytes behind "
          f"{args.filter} ...", flush=True)
    env = build_environment(DatasetConfig(
        num_keys=args.keys, key_width=args.width, seed=args.seed,
        filter_builder=_make_filter_builder(args.filter, args.width,
                                            args.suffix_bits)))
    service = env.service
    if args.rate_limit:
        service = RateLimitedService(
            env.service, RateLimitPolicy(requests_per_second=args.rate_limit,
                                         burst=args.burst))
    if args.defense != "off":
        service = build_defended_service(service, policy=DefensePolicy(
            mode=args.defense, check_every=args.check_every,
            penalty=RateLimitPolicy(requests_per_second=args.penalty_rate,
                                    burst=args.penalty_burst),
            noise_max_us=args.noise_max_us))
        print(f"online defense: {args.defense}", flush=True)
    server = AsyncKVWireServer(service, ServerConfig(
        host=args.host, port=args.port, backlog=args.backlog),
        background=env.background)
    server.start()
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)

    if args.smoke:
        # One real TCP round trip of each basic frame, both batch frames
        # included, then exit cleanly: the CI-facing proof that the
        # serving path works end to end.
        client = connect(host, port)
        try:
            client.ping()
            response, sim_us = client.get_timed(ATTACKER_USER, env.keys[0])
            stored_keys = env.key_set
            absent = [key for key in (bytes([0xFF] * args.width),
                                      bytes(args.width))
                      if key not in stored_keys]
            batch = client.get_many_timed(ATTACKER_USER,
                                          [env.keys[0]] + absent)
            stored = client.put_many(ATTACKER_USER,
                                     [(key, b"smoke") for key in absent])
            written = client.get_many(ATTACKER_USER, absent)
            stats = client.stats()
            if stats.requests < 1 or sim_us <= 0:
                print("smoke: bad stats/timing", file=sys.stderr)
                return 1
            if (not absent or [r.status for r, _ in batch]
                    != [response.status] + [Status.NOT_FOUND] * len(absent)
                    or stored != len(absent)
                    or written != [Response(Status.OK, b"smoke")]
                    * len(absent)):
                print("smoke: bad GET_MANY/PUT_MANY round trip",
                      file=sys.stderr)
                return 1
            print(f"smoke OK: status={response.status.name} "
                  f"sim_us={sim_us:.1f} served={stats.requests} "
                  f"batch={len(batch)}+{stored}", flush=True)
        finally:
            client.close()
            server.stop()
        return 0

    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down ...", flush=True)
    finally:
        server.stop()
    return 0


def _cmd_attack(args) -> int:
    from repro.core import AttackConfig, run_parallel_surf_attack
    from repro.filters.surf import SuffixScheme, SurfVariant
    from repro.server import ConnectionPool
    from repro.workloads import ATTACKER_USER

    host, _, port = args.remote.rpartition(":")
    if not host:
        print("--remote must be host:port", file=sys.stderr)
        return 2
    variant = SurfVariant(args.filter.split("-", 1)[1])
    scheme = SuffixScheme(
        variant, 0 if variant is SurfVariant.BASE else args.suffix_bits)
    print(f"attacking {host}:{port} over {args.connections} connections ...",
          flush=True)
    with ConnectionPool.tcp(host, int(port), args.connections) as pool:
        outcome = _maybe_profile(args.profile, lambda: run_parallel_surf_attack(
            pool, ATTACKER_USER, args.width, scheme,
            config=AttackConfig(key_width=args.width,
                                num_candidates=args.candidates),
            seed=args.seed, learn_samples=args.samples))
        wall = pool.wall_stats()
    result = outcome.result
    print(f"extracted {result.num_extracted} keys with "
          f"{result.total_queries:,} queries "
          f"(cutoff {outcome.learning.cutoff_us:.1f} us)")
    for extracted in result.extracted[:8]:
        print(f"  {extracted.key.hex()}")
    print(f"wall: {outcome.wall_seconds:.1f}s total, "
          f"{wall.requests:,} wire requests, "
          f"mean {wall.mean_us:.0f} us/request; "
          f"sim: {result.sim_duration_us / 1e6:.1f}s attacker time")
    return 0


def _cmd_doctor(args) -> int:
    from repro.common.rng import make_rng
    from repro.lsm import LSMTree
    from repro.lsm.torture import crash_point_sweep, default_torture_options
    from repro.storage import FaultPlan, FaultyStorageDevice, SimClock

    if args.torture:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        failed = False
        for seed in seeds:
            sweep = crash_point_sweep(seed, num_ops=args.ops,
                                      stride=args.stride,
                                      progress=(print if args.verbose
                                                else None))
            print(sweep.describe(), flush=True)
            failed = failed or not sweep.ok
        return 1 if failed else 0

    # Demonstration mode: build a small store, optionally injure it, then
    # recover and print what the recovery path decided.
    clock = SimClock()
    device = FaultyStorageDevice(clock, rng=make_rng(args.seed, "doctor"),
                                 plan=FaultPlan(seed=args.seed))
    options = default_torture_options()
    db = LSMTree(options=options, clock=clock, device=device)
    for index in range(args.ops):
        db.put(b"key%04d" % (index % 64), b"value-%05d" % index)

    if args.tear_wal and device.exists("wal/current.wal"):
        size = device.file_size("wal/current.wal")
        torn = device.read("wal/current.wal", 0, max(1, size - args.tear_wal))
        device.delete_file("wal/current.wal")
        device.create_file("wal/current.wal", torn)
        print(f"tore {args.tear_wal} byte(s) off the WAL tail")
    for target in args.flip or []:
        path = {"wal": "wal/current.wal", "manifest": "MANIFEST"}.get(target)
        if path is None:  # "sstable": newest table file
            tables = sorted(p for p in device.list_files()
                            if p.startswith("sst/"))
            if not tables:
                print("no SSTable to corrupt (workload too small)",
                      file=sys.stderr)
                return 2
            path = tables[-1]
        if not device.exists(path):
            print(f"nothing to corrupt: {path} does not exist",
                  file=sys.stderr)
            return 2
        byte = device.flip_random_bit(path)
        print(f"flipped one bit of {path} (byte {byte})")

    recovered = LSMTree.reopen(device, options=default_torture_options())
    report = recovered.recovery_report
    print(report.summary())
    return 0 if (report.clean or not args.strict) else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatch."""
    parser = argparse.ArgumentParser(
        prog="prefix-siphoning",
        description=("Reproduction of 'Prefix Siphoning: Exploiting LSM-Tree "
                     "Range Filters For Information Disclosure' (USENIX "
                     "Security 2023)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible experiments")
    run_parser = sub.add_parser("run", help="run experiments by name")
    run_parser.add_argument("names", nargs="+",
                            help="experiment names, or 'all'")
    demo = sub.add_parser("demo",
                          help="attack a freshly built store interactively")
    demo.add_argument("--keys", type=int, default=20_000,
                      help="stored secret keys (default 20000)")
    demo.add_argument("--width", type=int, default=5,
                      help="key width in bytes (default 5)")
    demo.add_argument("--filter", choices=DEMO_FILTERS, default="surf-real",
                      help="filter protecting the store")
    demo.add_argument("--attack", choices=("point", "range"),
                      default="point", help="attack family")
    demo.add_argument("--candidates", type=int, default=20_000,
                      help="FindFPK candidates / range budget scale")
    demo.add_argument("--target-keys", type=int, default=15,
                      help="range attack: stop after this many keys")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--profile", nargs="?", const="demo.pstats",
                      default=None, metavar="PSTATS",
                      help="run the attack under cProfile, dump stats to "
                           "PSTATS (default demo.pstats) and print the "
                           "top-20 cumulative entries")

    serve = sub.add_parser("serve",
                           help="serve a freshly built store over TCP")
    serve.add_argument("--keys", type=int, default=8_000,
                       help="stored secret keys (default 8000)")
    serve.add_argument("--width", type=int, default=5,
                       help="key width in bytes (default 5)")
    serve.add_argument("--filter", choices=DEMO_FILTERS, default="surf-real",
                       help="filter protecting the store")
    serve.add_argument("--suffix-bits", type=int, default=8,
                       help="SuRF suffix bits (default 8)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: ephemeral)")
    serve.add_argument("--backlog", type=int, default=16,
                       help="accept backlog (default 16)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="per-user requests/second (0 = unlimited)")
    serve.add_argument("--burst", type=int, default=32,
                       help="rate-limit token-bucket burst (default 32)")
    serve.add_argument("--defense", default="off",
                       choices=("off", "observe", "throttle", "noise"),
                       help="online siphoning defense mode (default off)")
    serve.add_argument("--check-every", type=int, default=64,
                       help="defense: observations between verdict "
                            "re-scores per user (default 64)")
    serve.add_argument("--penalty-rate", type=float, default=50.0,
                       help="defense throttle: flagged-user requests/second "
                            "(default 50)")
    serve.add_argument("--penalty-burst", type=int, default=4,
                       help="defense throttle: flagged-user burst (default 4)")
    serve.add_argument("--noise-max-us", type=float, default=400.0,
                       help="defense noise: max injected delay per negative "
                            "lookup, simulated us (default 400)")
    serve.add_argument("--smoke", action="store_true",
                       help="serve, run one client round trip, exit")

    attack = sub.add_parser("attack",
                            help="run the SuRF attack against a served store")
    attack.add_argument("--remote", required=True, metavar="HOST:PORT",
                        help="server address (see 'serve')")
    attack.add_argument("--connections", type=int, default=4,
                        help="pooled connections (default 4)")
    attack.add_argument("--width", type=int, default=5,
                        help="key width in bytes (default 5)")
    attack.add_argument("--filter",
                        choices=("surf-real", "surf-base", "surf-hash"),
                        default="surf-real",
                        help="filter variant the server was built with")
    attack.add_argument("--suffix-bits", type=int, default=8,
                        help="SuRF suffix bits (default 8)")
    attack.add_argument("--candidates", type=int, default=12_000,
                        help="FindFPK candidates (default 12000)")
    attack.add_argument("--samples", type=int, default=6_000,
                        help="learning-phase samples (default 6000)")
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--profile", nargs="?", const="attack.pstats",
                        default=None, metavar="PSTATS",
                        help="run the attack under cProfile, dump stats to "
                             "PSTATS (default attack.pstats) and print the "
                             "top-20 cumulative entries")

    doctor = sub.add_parser(
        "doctor",
        help="crash-recovery diagnostics: inject faults, recover, report")
    doctor.add_argument("--ops", type=int, default=200,
                        help="workload operations (default 200)")
    doctor.add_argument("--seed", type=int, default=0,
                        help="seed for the demonstration store")
    doctor.add_argument("--flip", action="append",
                        choices=("wal", "manifest", "sstable"),
                        help="flip a seeded random bit of this file "
                             "(repeatable)")
    doctor.add_argument("--tear-wal", type=int, default=0, metavar="BYTES",
                        help="cut this many bytes off the WAL tail "
                             "(simulates a torn final append)")
    doctor.add_argument("--strict", action="store_true",
                        help="exit nonzero unless recovery was fully clean")
    doctor.add_argument("--torture", action="store_true",
                        help="run the full crash-point sweep instead")
    doctor.add_argument("--seeds", default="0,1,2",
                        help="torture: comma-separated seeds (default 0,1,2)")
    doctor.add_argument("--stride", type=int, default=1,
                        help="torture: test every Nth crash point "
                             "(default 1 = exhaustive)")
    doctor.add_argument("--verbose", action="store_true",
                        help="torture: print progress lines")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "doctor":
        return _cmd_doctor(args)
    return _cmd_run(args.names)


if __name__ == "__main__":
    sys.exit(main())
