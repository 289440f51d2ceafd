"""One module per reproduced table/figure plus ablations (see DESIGN.md)."""

from repro.bench.experiments import (
    exp_ablation_backend,
    exp_ablation_compaction,
    exp_ablation_cutoff,
    exp_ablation_margin,
    exp_bruteforce,
    exp_defense,
    exp_detector,
    exp_fig2,
    exp_fig3,
    exp_fig4,
    exp_fig5,
    exp_fig6,
    exp_fig7,
    exp_fig8,
    exp_fine_timing,
    exp_mitigation,
    exp_mixed_workload,
    exp_network,
    exp_range_attack,
    exp_ratelimit,
    exp_server,
    exp_skew,
    exp_table1,
    exp_table2,
    exp_theory,
)

#: The registry: name -> module (each exposes ``run``).  The CLI lists and
#: runs from it, ``benchmarks/bench_experiments.py`` regenerates
#: ``results/`` from it, and tier-1 fails on an ``exp_*`` module missing
#: from it.
ALL_EXPERIMENTS = {
    "table1": exp_table1,
    "fig2": exp_fig2,
    "fig3": exp_fig3,
    "table2": exp_table2,
    "bruteforce": exp_bruteforce,
    "fig4": exp_fig4,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "theory": exp_theory,
    "mitigation": exp_mitigation,
    "ablation-backend": exp_ablation_backend,
    "ablation-cutoff": exp_ablation_cutoff,
    "ablation-margin": exp_ablation_margin,
    "ablation-compaction": exp_ablation_compaction,
    "range-attack": exp_range_attack,
    "ratelimit": exp_ratelimit,
    "network": exp_network,
    "server": exp_server,
    "skew": exp_skew,
    "fine-timing": exp_fine_timing,
    "detector": exp_detector,
    "defense": exp_defense,
    "mixed-workload": exp_mixed_workload,
}

__all__ = ["ALL_EXPERIMENTS"]
