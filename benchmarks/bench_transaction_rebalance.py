"""Transaction-coordinated rebalance vs. manual sequencing.

The transactional northbound API orders route installation on the move's
*state-installed* point (every per-flow put ACKed) instead of whole-operation
completion.  For an order-preserving move the difference is the entire replay
+ per-flow-release tail: with manual sequencing the new route is not even
requested until that tail has drained, so live traffic keeps arriving at the
old instance the whole time and every such packet needs a buffered replay.

This benchmark runs the same monitor rebalance both ways and reports:

* **move time** — moveInternal start until the operation returned;
* **re-route window** — state fully installed at the destination until the
  new routes are applied on every switch (the interval in which packets still
  reach the old instance although the new one could already serve them);
* **stale deliveries** — packets the old instance received inside that window
  (each one costs a re-process event + replay);
* **updates lost / misordered** — conservation check over per-flow packet
  counters, and packets the destination had to queue behind per-flow holds
  (the order-preserving misordering guard).

Expected shape: identical move times, a much shorter re-route window for the
transaction (install latency only), correspondingly fewer stale deliveries,
and zero lost updates for both.

A third row exercises the failure path.  The transaction moves the flows,
swaps a declarative route to the new instance in through the SDN controller
(``reroute(sdn, pattern, path)``), then asks the new instance for its stats —
but the new instance crashes the moment the route is in.  The stats step
fails, and the transaction must undo everything: the route is removed again
(``sdn.routes`` as before), and the completed move's source delete is
cancelled, so the source keeps every flow and every update.  The row's live
traffic stops before the route swap: an update delivered to an instance that
then crashes is gone whatever the control plane does, so what the row checks
is exactly what a rollback can promise.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.apps import build_two_instance_scenario
from repro.core import FlowPattern, StepStatus, TransactionAbortedError, TransferGuarantee, TransferSpec
from repro.middleboxes import PassiveMonitor

FLOWS = 60
PACKETS_DURING_MOVE = 600
#: Live packets of the rollback row: they all arrive before its route swap.
PACKETS_BEFORE_CRASH = 100
PACKET_SPACING = 0.0002
SPEC = TransferSpec(guarantee=TransferGuarantee.ORDER_PRESERVING)
PATTERN = FlowPattern(nw_src="10.1.1.0/24")


def build():
    scenario = build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name),
        mb_names=("mon1", "mon2"),
        quiescence_timeout=0.2,
    )
    sim = scenario.sim
    for index in range(FLOWS):
        from repro.net import tcp_packet

        packet = tcp_packet(f"10.1.1.{index % 200 + 1}", "172.16.0.10", 1000 + index, 80, b"warm")
        sim.schedule(0.0002 * index, scenario.mb1.receive, packet, 1)
    sim.run(until=sim.now + 0.1)
    return scenario


def keep_traffic_flowing(scenario, packets=PACKETS_DURING_MOVE):
    from repro.net import tcp_packet

    sim = scenario.sim
    for index in range(packets):
        packet = tcp_packet(
            f"10.1.1.{index % FLOWS % 200 + 1}", "172.16.0.10", 1000 + index % FLOWS, 80, b"live"
        )
        sim.schedule(PACKET_SPACING * index, scenario.client_gw.send, packet)


def arm(scenario, future, marks, point):
    """Stamp *point* in *marks* when *future* resolves: the time, and what the old instance has received by then."""
    sim, mb1 = scenario.sim, scenario.mb1
    future.add_done_callback(
        lambda f: marks.update({f"{point}_at": sim.now, f"stale_at_{point}": mb1.counters.packets_received})
    )


def measure(scenario, handle, routed_future, marks):
    """Common measurement: window boundaries + conservation."""
    sim = scenario.sim
    sim.run_until(handle.finalized, limit=1000)
    if not routed_future.done:
        sim.run_until(routed_future, limit=1000)
    sim.run(until=sim.now + 1.0)
    record = handle.record
    total = sum(rec.packets for _, rec in scenario.mb1.report_store.items())
    total += sum(rec.packets for _, rec in scenario.mb2.report_store.items())
    return {
        "move_time": record.duration,
        "window": marks["routed_at"] - marks["installed_at"],
        "stale_deliveries": marks["stale_at_routed"] - marks["stale_at_installed"],
        "updates_lost": FLOWS + PACKETS_DURING_MOVE - total,
        "held_packets": scenario.mb2.counters.packets_held,
        "events_replayed": record.events_forwarded,
        "releases": record.releases_sent,
    }


def run_manual():
    """The pre-transaction idiom: re-route only after the move *returned*."""
    scenario = build()
    sim = scenario.sim
    handle = scenario.northbound.move_internal("mon1", "mon2", PATTERN, spec=SPEC)
    keep_traffic_flowing(scenario)
    routed = sim.event(name="manual-routed")
    handle.completed.add_done_callback(
        lambda f: scenario.route_via(scenario.mb2, PATTERN).add_done_callback(
            lambda rf: routed.succeed(None)
        )
    )
    marks = {}
    arm(scenario, handle.state_installed, marks, "installed")
    arm(scenario, routed, marks, "routed")
    return measure(scenario, handle, routed, marks)


def run_transaction():
    """One transaction: the reroute step is gated on state_installed."""
    scenario = build()
    sim = scenario.sim
    marks, routed = {}, []

    def route_to_mon2():
        routed.append(scenario.route_via(scenario.mb2, PATTERN))
        arm(scenario, routed[0], marks, "routed")
        return routed[0]

    txn = scenario.northbound.transaction()
    move = txn.move("mon1", "mon2", PATTERN, spec=SPEC)
    txn.reroute(pattern=PATTERN, apply=route_to_mon2, after=move)
    txn_handle = txn.commit()
    keep_traffic_flowing(scenario)
    # The move step launches on the first scheduling round; step once so the
    # operation handle exists, then arm the probe before the clock advances.
    sim.run(until=sim.now)
    arm(scenario, move.handle.state_installed, marks, "installed")
    sim.run_until(txn_handle.done, limit=1000)
    return measure(scenario, move.handle, routed[0], marks)


def run_rollback():
    """The new instance crashes once the declarative route to it is in: the transaction rolls back."""
    scenario = build()
    sim, sdn, controller = scenario.sim, scenario.sdn, scenario.controller
    routes_before = set(sdn.routes)
    flows_before = len(scenario.mb1.report_store)
    path = [scenario.client_gw, scenario.ingress, scenario.mb2, scenario.egress, scenario.server_gw]
    txn = scenario.northbound.transaction()
    move = txn.move("mon1", "mon2", PATTERN, spec=SPEC)
    route = txn.reroute(sdn, PATTERN, path, after=move, priority=scenario.next_priority())
    txn.stats("mon2", PATTERN)

    def crash_once_routed(progress):
        if route.record.status is StepStatus.DONE and controller.is_registered("mon2"):
            controller.kill("mon2")

    txn.observer = crash_once_routed
    handle = txn.commit()
    keep_traffic_flowing(scenario, PACKETS_BEFORE_CRASH)
    failed_step = None
    try:
        sim.run_until(handle.done, limit=1000)
    except TransactionAbortedError as exc:
        failed_step = exc.step
    # Run well past the quiescence timeout: a source delete left armed would have run by then.
    sim.run(until=sim.now + 1.0)
    total = sum(rec.packets for _, rec in scenario.mb1.report_store.items())
    return {
        "status": handle.status,
        "failed_step": failed_step,
        "steps": {record.name: record.status.value for record in handle.steps},
        "routes_restored": set(sdn.routes) == routes_before,
        "source_flows_kept": len(scenario.mb1.report_store) == flows_before,
        "updates_lost": FLOWS + PACKETS_BEFORE_CRASH - total,
        "source_delete_cancelled": move.handle.record.finalized_at is None,
    }


def test_transaction_rebalance_vs_manual(once):
    def run_all():
        return {"manual sequencing": run_manual(), "transaction": run_transaction(), "rollback": run_rollback()}

    results = once(run_all)
    rollback = results.pop("rollback")
    headers = [
        "strategy",
        "move time (s)",
        "re-route window (s)",
        "stale deliveries",
        "updates lost",
        "held @ dst",
        "replays",
    ]
    rows = [
        [
            name,
            metrics["move_time"],
            metrics["window"],
            metrics["stale_deliveries"],
            metrics["updates_lost"],
            metrics["held_packets"],
            metrics["events_replayed"],
        ]
        for name, metrics in results.items()
    ]
    print_block(
        format_table("Transaction-coordinated rebalance vs manual sequencing (order-preserving move)", headers, rows)
    )
    columns = ("status", "failed_step", "routes_restored", "source_flows_kept", "updates_lost", "source_delete_cancelled")
    print_block(
        format_table(
            "Destination crash after the declarative reroute installed: the transaction rolls back",
            [column.replace("_", " ") for column in columns],
            [[rollback[column] for column in columns]],
        )
    )
    manual, txn = results["manual sequencing"], results["transaction"]
    assert manual["updates_lost"] == 0, "Transaction extension: manual sequencing loses no update"
    assert txn["updates_lost"] == 0, "Transaction extension: the transaction loses no update"
    # The coordinated reroute opens a strictly shorter window and therefore
    # fewer packets hit the stale instance.
    assert txn["window"] < manual["window"], "Transaction extension: the coordinated reroute opens a shorter window"
    assert txn["stale_deliveries"] <= manual["stale_deliveries"], "Transaction extension: no more stale deliveries than manual"
    # The failure path: abort, then every step undone.
    assert rollback["status"] == "aborted" and rollback["failed_step"] == "stats(mon2)", "Transaction extension: the failing step aborts"
    assert rollback["steps"] == {
        "move(mon1->mon2)": "rolled_back",
        "reroute(FlowPattern(nw_src=10.1.1.0/24))": "rolled_back",
        "stats(mon2)": "failed",
    }, "Transaction extension: every step before the failure is rolled back"
    assert rollback["routes_restored"], "Transaction extension: rollback restores the routes"
    assert rollback["source_flows_kept"] and rollback["source_delete_cancelled"], "Transaction extension: the source keeps its state"
    assert rollback["updates_lost"] == 0, "Transaction extension: rollback loses no update"
