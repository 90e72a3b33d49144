"""Flow size and duration distributions for synthetic workloads.

The paper's Figure 8 plots the CDF of HTTP flow durations in a university
data-center trace and observes that roughly 9 % of flows take more than
1500 seconds to complete — the fact that makes "wait for existing flows to
drain" an unacceptable scale-down strategy.  :class:`FlowDurationModel`
reproduces that shape with a mixture of a log-normal body (short transactional
flows) and a heavy Pareto tail (long-lived flows), with the tail weight chosen
so the >1500 s fraction is configurable.

Flow sizes follow a log-normal distribution, the standard empirical shape for
data-center flow sizes (Benson et al., IMC 2010, which the paper cites for its
data-center trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class FlowDurationModel:
    """A mixture model for flow durations (seconds)."""

    #: Median of the short-flow (log-normal) component.
    body_median: float = 8.0
    #: Sigma of the short-flow component (log-space).
    body_sigma: float = 1.2
    #: Fraction of flows drawn from the heavy tail.
    tail_fraction: float = 0.14
    #: Pareto shape of the tail (smaller = heavier).
    tail_alpha: float = 1.1
    #: Scale (minimum) of the tail component, seconds.  Together with the tail
    #: fraction this puts roughly 9 % of flows above 1500 s, matching Figure 8.
    tail_scale: float = 1000.0

    #: Cap on any single flow duration (seconds); a day, so the heavy tail stays
    #: heavy without producing physically implausible multi-week flows.
    max_duration: float = 86_400.0

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *count* flow durations."""
        from_tail = rng.random(count) < self.tail_fraction
        body = rng.lognormal(mean=np.log(self.body_median), sigma=self.body_sigma, size=count)
        tail = self.tail_scale * (1.0 + rng.pareto(self.tail_alpha, size=count))
        return np.minimum(np.where(from_tail, tail, body), self.max_duration)

    def fraction_exceeding(self, threshold: float, count: int = 200_000, seed: int = 7) -> float:
        """Monte-Carlo estimate of the fraction of flows longer than *threshold*."""
        rng = np.random.default_rng(seed)
        samples = self.sample(count, rng)
        return float(np.mean(samples > threshold))


@dataclass
class FlowSizeModel:
    """Log-normal model for flow sizes in bytes."""

    median_bytes: float = 12_000.0
    sigma: float = 1.6
    minimum_bytes: int = 200

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        sizes = rng.lognormal(mean=np.log(self.median_bytes), sigma=self.sigma, size=count)
        return np.maximum(sizes, self.minimum_bytes).astype(np.int64)


def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile of *values* (0 <= q <= 1)."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    return float(np.quantile(array, q))


def fraction_exceeding(values: Sequence[float], threshold: float) -> float:
    """Fraction of *values* strictly greater than *threshold*."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    return float(np.mean(array > threshold))
