"""Gandiva_fair: greedy second-price trading on top of max-min (§2.4).

The mechanism (Chaudhary et al., EuroSys '20, as analysed by the OEF
paper):

1. start from the max-min equal split — every tenant owns ``m_j / n`` of
   each GPU type;
2. repeatedly pick the (buyer, seller, slow type, fast type) combination
   with the *greatest speedup-ratio gap*, where the buyer values the fast
   type most (relative to the slow type) and the seller least;
3. the buyer trades away its slow-GPU share for the seller's fast-GPU
   share at a price strictly between the two valuations (the Vickrey-style
   "second price"; the paper's own worked example prices the trade at the
   midpoint of the two participants' ratios — e.g. 2.5 for ratios 2 and 3,
   rising to 2.9 when the seller fakes 2 -> 2.8, which this implementation
   reproduces exactly);
4. stop when no gap remains.

Every trade strictly raises both participants' throughput, so the result
is sharing-incentive and pareto-improving over max-min — but, as the paper
shows, neither envy-free nor strategy-proof nor optimally efficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.base import Allocator
from repro.core.instance import ProblemInstance
from repro.registry import register_scheduler


@dataclass(frozen=True)
class Trade:
    """One executed trade, kept for inspection and tests."""

    buyer: int
    seller: int
    slow_type: int
    fast_type: int
    price: float
    slow_amount: float  # slow-GPU share the buyer pays
    fast_amount: float  # fast-GPU share the buyer receives


@register_scheduler(
    aliases=("gandiva",),
    family="baseline",
    description="Gandiva_fair's greedy GPU-trading baseline",
    # greedy trading is PE only up to small residuals on random
    # instances (exact on the paper's worked example)
    pe_tolerance=0.02,
)
class GandivaFair(Allocator):
    """Greedy trading baseline; records its trade log on the instance."""

    name = "gandiva-fair"

    def __init__(
        self,
        min_gap: float = 1e-6,
        min_volume: float = 1e-9,
        max_trades: int = 10_000,
        trade_lot: float = 0.0,
    ):
        """``trade_lot`` sets the trading granularity in slow-GPU units.

        The default 0.0 trades arbitrarily fine fractions — the fluid
        mechanism of the paper's §2.4 analysis.  The real Gandiva_fair
        migrates jobs between physical devices but time-slices them, so
        every round scheduler
        (:func:`~repro.cluster.schedulers.make_fair_share_scheduler`: the
        paper experiments, ``repro simulate``, ``repro fleet-sim``'s
        regions) uses ``trade_lot=0.25``: trades below a quarter device
        cannot execute, leaving tenants with mixed residual holdings
        across GPU types — the source of Gandiva's cross-type placements
        in §6.3.3.  Instance-level solves (the gateway, ``repro
        compare``, Table 1, the fleet's quota pre-pass) trade at 0.0.
        """
        self.min_gap = min_gap
        self.min_volume = min_volume
        self.max_trades = max_trades
        self.trade_lot = trade_lot
        self.last_trades: List[Trade] = []

    def allocate(self, instance: ProblemInstance) -> Allocation:
        speedups = instance.speedups.values
        num_users, num_types = speedups.shape
        matrix = np.tile(instance.capacities / num_users, (num_users, 1))

        trades: List[Trade] = []
        for _ in range(self.max_trades):
            trade = self._best_trade(speedups, matrix)
            if trade is None:
                break
            self._execute(matrix, trade)
            trades.append(trade)
        self.last_trades = trades
        return Allocation(matrix, instance, allocator_name=self.name)

    # -- trading mechanics ---------------------------------------------------
    def _best_trade(
        self, speedups: np.ndarray, matrix: np.ndarray
    ) -> Optional[Trade]:
        """The (buyer, seller, slow, fast) tuple with the greatest ratio gap.

        The buyer must still hold some slow-GPU share to pay with; the
        seller must hold fast-GPU share to sell.
        """
        num_users, num_types = speedups.shape
        best: Optional[Tuple[float, Trade]] = None
        for slow in range(num_types):
            for fast in range(slow + 1, num_types):
                ratios = speedups[:, fast] / speedups[:, slow]
                for buyer in range(num_users):
                    if matrix[buyer, slow] <= self.min_volume:
                        continue
                    for seller in range(num_users):
                        if seller == buyer or matrix[seller, fast] <= self.min_volume:
                            continue
                        gap = ratios[buyer] - ratios[seller]
                        if gap <= self.min_gap:
                            continue
                        price = 0.5 * (ratios[buyer] + ratios[seller])
                        fast_amount = min(
                            matrix[buyer, slow] / price, matrix[seller, fast]
                        )
                        if self.trade_lot > 0:
                            # whole-lot trading: round the paid slow share
                            # down to lot multiples; sub-lot trades abort
                            lots = np.floor(fast_amount * price / self.trade_lot)
                            fast_amount = lots * self.trade_lot / price
                        if fast_amount <= self.min_volume:
                            continue
                        candidate = Trade(
                            buyer=buyer,
                            seller=seller,
                            slow_type=slow,
                            fast_type=fast,
                            price=price,
                            slow_amount=fast_amount * price,
                            fast_amount=fast_amount,
                        )
                        if best is None or gap > best[0]:
                            best = (gap, candidate)
        return best[1] if best else None

    @staticmethod
    def _execute(matrix: np.ndarray, trade: Trade) -> None:
        matrix[trade.buyer, trade.slow_type] -= trade.slow_amount
        matrix[trade.seller, trade.slow_type] += trade.slow_amount
        matrix[trade.seller, trade.fast_type] -= trade.fast_amount
        matrix[trade.buyer, trade.fast_type] += trade.fast_amount
        # numerical hygiene: clip tiny negatives introduced by the arithmetic
        matrix[matrix < 0] = np.where(
            matrix[matrix < 0] > -1e-9, 0.0, matrix[matrix < 0]
        )
