"""The empirical-study pipeline.

Encodes the paper's labelled datasets (bugs, unsafe usages, unsafe
removals, interior-unsafe audits) and the aggregation code that
regenerates every table and figure of the evaluation:

* Table 1 — studied applications and bug counts;
* Table 2 — memory-bug categories (safety propagation × effect);
* Table 3 — blocking-bug synchronisation primitives per project;
* Table 4 — data-sharing methods of non-blocking bugs per project;
* Figure 1 — Rust release history (feature churn and KLOC);
* Figure 2 — studied-bug fix dates per quarter;
* §4 statistics — unsafe usage / removal / encapsulation numbers;
* §5.2 / §6.1 / §6.2 statistics — root causes and fix strategies.

The per-bug records are *reconstructed* from the paper's published
marginals: every aggregate the paper reports is reproduced exactly; joint
distributions the paper does not report (e.g. which memory-bug effect
occurred in which project) are filled in deterministically and documented
as such in EXPERIMENTS.md.

The package re-exports nothing: import from its submodules
(``repro.study.tables``, ``repro.study.taxonomy``, ...), so that the
corpus, which needs only the taxonomy, does not load the datasets.
"""
