"""The CPI model combining base block cost, branch, and cache penalties."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PerfModel:
    """Penalty parameters of the analytic timing model.

    cycles = sum(block_size * block_base_cpi)
           + branch_mispredict_penalty * mispredictions
           + dl1_miss_penalty * data-cache misses
    """

    branch_mispredict_penalty: float = 10.0
    dl1_miss_penalty: float = 40.0

    def total_cycles(
        self,
        base_cycles: np.ndarray,
        mispredicts: np.ndarray,
        dl1_misses: np.ndarray,
    ) -> np.ndarray:
        return (
            base_cycles
            + self.branch_mispredict_penalty * mispredicts
            + self.dl1_miss_penalty * dl1_misses
        )
