"""Extensions beyond the paper: its Section-10 future-work items, built.

* :mod:`repro.extensions.block_partitioned` — owner-computes restricted
  randomization for distributed-memory layouts;
* :mod:`repro.extensions.probabilistic_delays` — row-cost-driven delay
  modeling for skewed matrices (the "more descriptive" analysis input).
"""

from .block_partitioned import (
    BlockPartitionedDirections,
    OwnerComputesResult,
    owner_computes_solve,
)
from .fault_injection import (
    DeadProcessorDirections,
    DeadProcessorStudy,
    dead_processor_study,
)
from .probabilistic_delays import RowCostDelay, effective_tau

__all__ = [
    "BlockPartitionedDirections",
    "DeadProcessorDirections",
    "DeadProcessorStudy",
    "OwnerComputesResult",
    "RowCostDelay",
    "dead_processor_study",
    "effective_tau",
    "owner_computes_solve",
]
