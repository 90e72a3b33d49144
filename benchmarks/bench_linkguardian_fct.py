"""Flow completion times over a corrupting link, with/without link-local protection.

The LinkGuardian AE experiment family, on the reproduction's data plane: a
host pair talks through two switches whose middle hop corrupts frames at a
fixed rate (seeded :class:`~repro.net.links.LinkFaultPlan`).  A minimal
reliable window transport (in this file) runs end to end with a
datacenter-scale retransmission timeout, and each configuration measures:

* **FCT distribution** — per-flow completion times (p50/p99) for
  ``FLOWS`` flows of ``PACKETS_PER_FLOW`` packets each;
* **effective loss rate** — the loss the *transport* still observes
  (end-to-end timeouts over first-attempt data packets);
* **goodput** — unique payload bytes delivered over the measured span.

The matrix is corruption rate (10⁻³ / 10⁻⁴) × protection (off / on).  The
claim being checked: with LinkGuardian-style protection at 10⁻³ corruption,
the effective end-to-end loss rate drops by ≥ 100× and FCT p99 improves —
losses are repaired in sub-RTT time at the link instead of costing a full
end-to-end timeout.  Results persist to ``BENCH_linkguardian_fct.json``.
Run as a script::

    PYTHONPATH=src python benchmarks/bench_linkguardian_fct.py --seed 7
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.analysis import format_table, print_block
from repro.core.flowspace import FlowPattern
from repro.net import Action, FlowRule, LinkFaultPlan, ProtectionConfig, Simulator, Switch, Topology, tcp_packet
from repro.net.links import Link
from repro.net.protection import summarize

try:
    from benchmarks._results import duration_stats, percentile, write_results
except ModuleNotFoundError:  # invoked as a script: benchmarks/ is sys.path[0]
    from _results import duration_stats, percentile, write_results

DEFAULT_BASE_SEED = 3
#: Corruption rates of the matrix (per data frame on the middle hop).
CORRUPTION_RATES = (1e-3, 1e-4)
FLOWS = 50
PACKETS_PER_FLOW = 240
PAYLOAD_BYTES = 1000
#: Transport knobs: sliding window and the end-to-end retransmission timeout.
#: The RTO is datacenter-scale (10 ms) — two orders of magnitude above the
#: path RTT (~0.3 ms), which is exactly why unmasked corruption loss is so
#: expensive for short flows.
WINDOW = 8
E2E_RTO = 10e-3

H1_IP = "10.20.0.1"
H2_IP = "10.20.0.2"


class _ReliableFlow:
    """One flow of a minimal reliable window transport (sender side).

    Sequence-numbered data packets with a sliding window; the receiver acks
    every arrival; an unacked packet is re-sent after :data:`E2E_RTO`.  Just
    enough transport to make end-to-end loss observable and costly — the
    quantity the link-local protection is supposed to drive to zero.
    """

    def __init__(self, sim: Simulator, host, port: int, on_done: Callable[["_ReliableFlow"], None]) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        self.on_done = on_done
        self.started_at = sim.now
        self.completed_at: Optional[float] = None
        self.first_sends = 0
        self.timeouts = 0
        self._next_seq = 1
        self._unacked: Dict[int, bytes] = {}
        self._fill_window()

    @property
    def fct(self) -> float:
        """Flow completion time (simulated seconds)."""
        assert self.completed_at is not None
        return self.completed_at - self.started_at

    def _fill_window(self) -> None:
        while self._next_seq <= PACKETS_PER_FLOW and len(self._unacked) < WINDOW:
            seq = self._next_seq
            self._next_seq += 1
            self._unacked[seq] = bytes(PAYLOAD_BYTES)
            self.first_sends += 1
            self._send(seq)

    def _send(self, seq: int) -> None:
        self.host.send(tcp_packet(H1_IP, H2_IP, self.port, 80, self._unacked[seq], seq=seq))
        self.sim.schedule(E2E_RTO, self._check, seq)

    def _check(self, seq: int) -> None:
        if seq in self._unacked:  # never acked: the transport eats a full RTO
            self.timeouts += 1
            self._send(seq)

    def on_ack(self, seq: int) -> None:
        """An end-to-end ack arrived back at the sender."""
        if self._unacked.pop(seq, None) is None:
            return  # duplicate ack
        if not self._unacked and self._next_seq > PACKETS_PER_FLOW:
            self.completed_at = self.sim.now
            self.on_done(self)
        else:
            self._fill_window()


def _build_path(seed: int, corruption: float, protected: bool):
    """h1 — s1 ==(corrupting, optionally protected)== s2 — h2."""
    sim = Simulator()
    topo = Topology(sim)
    h1 = topo.add_host("h1", H1_IP)
    h2 = topo.add_host("h2", H2_IP)
    s1 = topo.add_node(Switch(sim, "s1"))
    s2 = topo.add_node(Switch(sim, "s2"))
    topo.connect(h1, s1)
    lossy: Link = topo.connect(s1, s2, faults=LinkFaultPlan.symmetric(seed, corruption=corruption))
    topo.connect(s2, h2)
    if protected:
        lossy.enable_protection(ProtectionConfig(strict_order=True))
    for switch, forward, backward in ((s1, s2, h1), (s2, h2, s1)):
        switch.install_rule(FlowRule(FlowPattern(nw_dst=H2_IP), [Action.output(switch.port_to(forward))]))
        switch.install_rule(FlowRule(FlowPattern(nw_dst=H1_IP), [Action.output(switch.port_to(backward))]))
    return sim, h1, h2, lossy


def run_config(seed: int, corruption: float, protected: bool) -> dict:
    """Run every flow (sequentially) through one path configuration."""
    sim, h1, h2, lossy = _build_path(seed, corruption, protected)
    flows: list = []
    state: Dict[str, Optional[_ReliableFlow]] = {"active": None}
    delivered_seqs: Dict[int, set] = {}

    def receiver(packet) -> None:
        # h2: record the unique delivery and ack every arrival (dups too —
        # the ack itself may have been the casualty).
        delivered_seqs.setdefault(packet.tp_src, set()).add(packet.seq)
        h2.send(tcp_packet(H2_IP, H1_IP, 80, packet.tp_src, b"", seq=packet.seq))

    def ack_receiver(packet) -> None:
        flow = state["active"]
        if flow is not None and packet.tp_dst == flow.port:
            flow.on_ack(packet.seq)

    h2.on_receive(receiver)
    h1.on_receive(ack_receiver)

    def start_next(finished=None) -> None:
        if finished is not None:
            flows.append(finished)
        if len(flows) < FLOWS:
            state["active"] = _ReliableFlow(sim, h1, 10_000 + len(flows), start_next)

    started = sim.now
    start_next()
    sim.run(until=started + 120.0)
    assert len(flows) == FLOWS, f"only {len(flows)}/{FLOWS} flows completed"

    first_sends = sum(flow.first_sends for flow in flows)
    timeouts = sum(flow.timeouts for flow in flows)
    unique_delivered = sum(len(seqs) for seqs in delivered_seqs.values())
    span = flows[-1].completed_at - started
    summary = summarize(lossy)
    return {
        "fcts": [flow.fct for flow in flows],
        "fct": duration_stats([flow.fct for flow in flows]),
        "effective_loss_rate": timeouts / first_sends,
        "e2e_timeouts": timeouts,
        "goodput_mbps": round(8.0 * unique_delivered * PAYLOAD_BYTES / span / 1e6, 3),
        "wire": {
            "data_frames": summary.sent,
            "lost_on_wire": summary.lost_on_wire,
            "link_retransmits": summary.retransmits,
            "ctrl_frames": summary.ctrl_frames,
            "abandoned": summary.abandoned,
        },
    }


def run_matrix(base_seed: int) -> dict:
    """The full corruption-rate × protection matrix."""
    matrix: dict = {}
    for corruption in CORRUPTION_RATES:
        for protected in (False, True):
            label = f"{corruption:g}/{'protected' if protected else 'unprotected'}"
            matrix[label] = run_config(base_seed, corruption, protected)
    return matrix


def _loss_reduction(matrix: dict, corruption: float) -> float:
    """How many times lower the protected effective loss rate is (inf-safe)."""
    unprotected = matrix[f"{corruption:g}/unprotected"]["effective_loss_rate"]
    protected = matrix[f"{corruption:g}/protected"]["effective_loss_rate"]
    if protected == 0.0:
        return float("inf")
    return unprotected / protected


def _results_payload(matrix: dict, base_seed: int) -> dict:
    configs = {
        label: {key: value for key, value in config.items() if key != "fcts"}
        for label, config in matrix.items()
    }
    reductions = {
        f"{corruption:g}": _loss_reduction(matrix, corruption) for corruption in CORRUPTION_RATES
    }
    return {
        "base_seed": base_seed,
        "workload": {
            "flows": FLOWS,
            "packets_per_flow": PACKETS_PER_FLOW,
            "payload_bytes": PAYLOAD_BYTES,
            "window": WINDOW,
            "e2e_rto_s": E2E_RTO,
        },
        "configs": configs,
        # JSON has no Infinity: a fully repaired run reports the reduction as
        # the (conservative) count of unprotected timeouts it avoided.
        "loss_reduction": {
            rate: (value if value != float("inf") else matrix[f"{rate}/unprotected"]["e2e_timeouts"] * 1.0)
            for rate, value in reductions.items()
        },
        "loss_fully_repaired": {rate: value == float("inf") for rate, value in reductions.items()},
    }


def _print_summary(matrix: dict) -> None:
    print_block(
        format_table(
            f"FCT over a corrupting link ({FLOWS} flows x {PACKETS_PER_FLOW} pkts, RTO {E2E_RTO * 1e3:g} ms)",
            ["config", "fct p50 (ms)", "fct p99 (ms)", "eff. loss", "goodput (Mbps)", "link retx"],
            [
                (
                    label,
                    config["fct"]["p50_ms"],
                    config["fct"]["p99_ms"],
                    f"{config['effective_loss_rate']:.2e}",
                    config["goodput_mbps"],
                    config["wire"]["link_retransmits"],
                )
                for label, config in matrix.items()
            ],
        )
    )


def test_linkguardian_fct_acceptance(once):
    """Protection at 10⁻³ corruption: ≥100× lower effective loss, better p99."""
    matrix = once(run_matrix, DEFAULT_BASE_SEED)
    _print_summary(matrix)
    write_results("linkguardian_fct", _results_payload(matrix, DEFAULT_BASE_SEED))

    unprotected = matrix["0.001/unprotected"]
    protected = matrix["0.001/protected"]
    # The wire genuinely corrupted frames in both runs.
    assert unprotected["wire"]["lost_on_wire"] > 0, "LinkGuardian: the wire corrupts frames without protection"
    assert protected["wire"]["lost_on_wire"] > 0, "LinkGuardian: the wire corrupts frames with protection"
    assert protected["wire"]["link_retransmits"] > 0, "LinkGuardian: the link repairs losses by retransmission"
    assert protected["wire"]["abandoned"] == 0, "LinkGuardian: no hold is abandoned"
    # Acceptance: effective end-to-end loss rate drops >= 100x ...
    assert unprotected["effective_loss_rate"] > 0, "LinkGuardian: loss reaches the transport without protection"
    assert _loss_reduction(matrix, 1e-3) >= 100.0, "LinkGuardian: ≥ 100× lower effective loss at 10⁻³"
    # ... and the FCT tail improves (p99 pays no end-to-end timeouts).
    assert protected["fct"]["p99_ms"] < unprotected["fct"]["p99_ms"], "LinkGuardian: protection improves the FCT p99"
    assert percentile(protected["fcts"], 99.0) < E2E_RTO + percentile(matrix["0.001/protected"]["fcts"], 50.0), (
        "LinkGuardian: the protected p99 pays no end-to-end timeout"
    )
    # Goodput does not regress when protection is on.
    assert protected["goodput_mbps"] >= unprotected["goodput_mbps"], "LinkGuardian: goodput does not regress"


def main() -> None:
    """CLI entry point: re-run the matrix with a caller-chosen seed."""
    import argparse

    parser = argparse.ArgumentParser(description="LinkGuardian-style FCT benchmark")
    parser.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED, help="fault-plan seed for every config")
    args = parser.parse_args()
    matrix = run_matrix(args.seed)
    _print_summary(matrix)
    path = write_results("linkguardian_fct", _results_payload(matrix, args.seed))
    print(f"results -> {path}")


if __name__ == "__main__":
    main()
