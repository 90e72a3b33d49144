"""Figure 8: CDF of flow durations and the hold-up it implies for scale-down.

Regenerates the flow-duration CDF of the (synthetic) data-center workload and
the consequence the paper draws from it: with configuration+routing-only
control, a middlebox being scaled down must stay alive until its last active
flow finishes — over 1500 seconds, because roughly 9 % of flows last longer
than that.
"""

from __future__ import annotations

from repro.analysis import CDF, format_mapping, format_series, print_block
from repro.baselines import scale_down_hold_up
from repro.traffic import datacenter_flow_durations


def run_flow_duration_analysis():
    durations = datacenter_flow_durations(20000, seed=8)
    cdf = CDF.from_samples(durations)
    hold_up = scale_down_hold_up(durations, decision_time=60.0)
    return durations, cdf, hold_up


def test_fig8_flow_duration_cdf(once):
    durations, cdf, hold_up = once(run_flow_duration_analysis)

    series = [(round(value, 1), round(probability, 4)) for value, probability in cdf.series(points=25)]
    print_block(format_series("Figure 8 — CDF of flow durations (s)", series, x_label="duration (s)", y_label="CDF"))
    print_block(
        format_mapping(
            "Figure 8 — derived quantities",
            {
                "flows sampled": len(durations),
                "median duration (s)": round(cdf.quantile(0.5), 1),
                "fraction of flows > 1500 s": round(cdf.exceeding(1500.0), 4),
                "scale-down decided at (s)": 60.0,
                "flows still active at decision": hold_up.active_flows,
                "deprecated MB held up for (s)": round(hold_up.held_up_seconds, 1),
            },
        )
    )

    # Shape checks: ~9 % of flows exceed 1500 s and the hold-up exceeds 1500 s.
    assert 0.05 < cdf.exceeding(1500.0) < 0.14, "Fig. 8: ≈ 9 % of flows outlive 1500 s"
    assert hold_up.held_up_seconds > 1500.0, "Fig. 8: config+routing control holds scale-down up for > 1500 s"
    # The CDF is a proper distribution function.
    assert cdf.at(0.0) <= cdf.at(100.0) <= cdf.at(10000.0) <= 1.0, "Fig. 8: the CDF is monotone and bounded by 1"
