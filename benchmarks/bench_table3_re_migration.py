"""Table 3: performance and correctness of RE during live migration.

Regenerates the two rows of Table 3: the redundant bytes eliminated (encoded)
and the bytes that could not be decoded, for OpenMB's migration application
(clone the decoder cache, coordinate routing and the encoder's cache switch)
versus configuration+routing-only control (empty caches, routing lagging the
encoder switch by ten packets).
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.apps import REMigrationApp, build_re_migration_scenario
from repro.baselines import ConfigRoutingREMigration
from repro.traffic import redundancy_trace

CACHE_CAPACITY = 128 * 1024
WARM_PACKETS = 150
POST_PACKETS = 120
PAYLOAD = 512
REDUNDANCY = 0.6


def _workload(seed_a=81, seed_b=82, interval=0.002):
    def trace(packets, subnet, seed, spacing):
        return redundancy_trace(
            packets=packets, payload_bytes=PAYLOAD, redundancy=REDUNDANCY, server_subnet=subnet, seed=seed, interval=spacing
        )

    warm_a = trace(WARM_PACKETS, "1.1.1", seed_a, interval)
    warm_b = trace(WARM_PACKETS, "1.1.2", seed_b, interval)
    post_a = trace(POST_PACKETS, "1.1.1", seed_a, interval)
    post_b = trace(POST_PACKETS, "1.1.2", seed_b, 0.004)
    return warm_a, warm_b, post_a, post_b


def run_sdmbn():
    scenario = build_re_migration_scenario(cache_capacity=CACHE_CAPACITY)
    warm_a, warm_b, post_a, post_b = _workload()
    scenario.inject(warm_a.merged_with(warm_b))
    scenario.sim.run(until=scenario.sim.now + 0.6)
    app = REMigrationApp(
        scenario.sim,
        scenario.northbound,
        encoder=scenario.encoder.name,
        orig_decoder=scenario.decoder_a.name,
        new_decoder=scenario.decoder_b.name,
        update_routing=scenario.reroute_dc_b,
    )
    scenario.sim.run_until(app.start(), limit=100)
    scenario.inject(post_a.merged_with(post_b), start_at=scenario.sim.now + 0.05)
    scenario.sim.run(until=scenario.sim.now + 2.5)
    return scenario


def run_config_routing():
    scenario = build_re_migration_scenario(cache_capacity=CACHE_CAPACITY)
    warm_a, warm_b, post_a, post_b = _workload()
    scenario.inject(warm_a.merged_with(warm_b))
    scenario.sim.run(until=scenario.sim.now + 0.6)
    app = ConfigRoutingREMigration(
        scenario,
        routing_delay=0.04,  # ten 4 ms-spaced DC-B packets are sent before routing takes effect
        on_cache_switched=lambda: scenario.inject(post_b, start_at=scenario.sim.now),
    )
    scenario.sim.run_until(app.start(), limit=100)
    scenario.inject(post_a, start_at=scenario.sim.now + 0.01)
    scenario.sim.run(until=scenario.sim.now + 2.5)
    return scenario


def _row(name, scenario):
    undecodable = scenario.decoder_a.undecodable_bytes + scenario.decoder_b.undecodable_bytes
    return (
        name,
        scenario.encoder.total_bytes,
        scenario.encoder.encoded_bytes,
        undecodable,
        len(scenario.dc_a_host.received) + len(scenario.dc_b_host.received),
    )


def test_table3_re_migration(once):
    def run_both():
        return run_sdmbn(), run_config_routing()

    sdmbn, baseline = once(run_both)

    print_block(
        format_table(
            "Table 3 — RE in live migration",
            ["scheme", "payload bytes", "encoded (redundant) bytes", "undecodable bytes", "packets delivered"],
            [_row("SDMBN (OpenMB)", sdmbn), _row("Config + routing", baseline)],
        )
    )

    sdmbn_undecodable = sdmbn.decoder_a.undecodable_bytes + sdmbn.decoder_b.undecodable_bytes
    baseline_undecodable = baseline.decoder_a.undecodable_bytes + baseline.decoder_b.undecodable_bytes
    # Shape of Table 3: OpenMB decodes everything; the baseline cannot decode the
    # encoded bytes of the migrated subnet and also eliminates less redundancy
    # (its new cache starts cold).
    assert sdmbn_undecodable == 0, "Table 3: OpenMB leaves no byte undecodable"
    assert baseline_undecodable > 0, "Table 3: config+routing leaves undecodable bytes"
    assert baseline.encoder.encoded_bytes < sdmbn.encoder.encoded_bytes, "Table 3: config+routing eliminates less redundancy"
