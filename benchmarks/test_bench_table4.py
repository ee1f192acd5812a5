"""Table IV regeneration — average number of bits received per tag.

The paper's headline energy table (received bits dominate energy on
CC1120-class radios).  Timed unit: the per-trial triple — SICP + GMLE-CCM
+ TRP-CCM over one shared deployment — i.e. exactly one column-cell worth
of evaluation work.  Shape checks: CCM saves >70 % received bits vs SICP
at every range, decreases with r, and is load-balanced (max ≈ avg).
"""

from repro.experiments.common import format_table, paper_trial_metrics


def test_table4_avg_received(benchmark, bench_scale, bench_master, emit):
    def trial_unit():
        return paper_trial_metrics(6.0, bench_scale.n_tags, seed=64)

    metrics = benchmark(trial_unit)
    assert metrics["sicp_avg_received"] > metrics["gmle_ccm_avg_received"]

    rows = bench_master.table4_avg_received()
    emit(
        "table4_avg_received",
        format_table(
            "Table IV — average bits received per tag (bench scale)",
            bench_master.tag_ranges,
            rows,
        ),
    )

    # Bench-scale-robust margins (the paper-scale gaps are far wider).
    for i in range(len(bench_master.tag_ranges)):
        assert rows["gmle_ccm"][i] < 0.5 * rows["sicp"][i]
        assert rows["trp_ccm"][i] < 0.8 * rows["sicp"][i]
    # CCM received bits decrease with r (fewer rounds of monitoring).
    assert rows["gmle_ccm"][0] > rows["gmle_ccm"][-1]
    assert rows["trp_ccm"][0] > rows["trp_ccm"][-1]

    # Load balance: CCM max ≈ avg (the paper's closing observation).
    t2 = bench_master.table2_max_received()
    for i in range(len(bench_master.tag_ranges)):
        assert t2["gmle_ccm"][i] < 1.25 * rows["gmle_ccm"][i]
