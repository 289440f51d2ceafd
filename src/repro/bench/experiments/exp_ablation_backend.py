"""Ablation — SuRF backend: reference dict-trie vs succinct LOUDS.

A design-choice bench beyond the paper's tables (DESIGN.md section 5,
decision 2): the two backends must agree on every query; LOUDS, the real
memory layout, is the backend every product path builds, and the dict
trie is the reference it is held to.  Reports agreement, build time,
query throughput, and measured vs estimated succinct size.
"""

from __future__ import annotations

import time

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.filters.surf import SuRF
from repro.workloads.keygen import sha1_dataset

PAPER_CLAIM = ("(beyond the paper) Both backends implement section 6.1's "
               "structure; answers must be identical")
SCALE_NOTE = "20k 40-bit keys, 20k mixed-length probe queries"


def run(num_keys: int = 20_000, probes: int = 20_000,
        seed: int = 0) -> ExperimentReport:
    """Build both backends, compare answers, time queries."""
    keys = sha1_dataset(num_keys, 5, seed)
    rng = make_rng(seed, "ablation-backend")
    queries = [rng.random_bytes(rng.randint(1, 6)) for _ in range(probes)]
    queries += keys[::max(1, num_keys // 2000)]

    rows = []
    answers = {}
    for backend in ("trie", "louds"):
        started = time.perf_counter()
        filt = SuRF.build(keys, variant="real", suffix_bits=8,
                          backend=backend)
        build_s = time.perf_counter() - started
        started = time.perf_counter()
        answers[backend] = [filt.may_contain(q) for q in queries]
        query_s = time.perf_counter() - started
        rows.append({
            "backend": backend,
            "build_seconds": build_s,
            "queries_per_second": len(queries) / query_s,
            "bits_per_key": filt.memory_bits() / num_keys,
        })
    agree = answers["trie"] == answers["louds"]
    return ExperimentReport(
        experiment="ablation-backend",
        title="SuRF backend ablation: dict-trie vs LOUDS",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={"backends_agree_on_all_queries": agree,
                 "queries_checked": len(queries)},
    )
