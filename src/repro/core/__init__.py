"""The paper's contribution: VEND encodings and NEpair determination."""

from .analysis import (
    CodeDescription,
    IndexStatistics,
    PairClassScores,
    describe_code,
    index_statistics,
    score_breakdown,
)
from .base import (
    GraphNeighborFetch,
    NeighborFetch,
    NonedgeFilter,
    VendSolution,
    available_solutions,
    create_solution,
    register_solution,
)
from .bitvector import BitVector
from .blocks import BlockChoice, select_block, select_blocks
from .hash_based import BitHashVend, HashVend
from .hybplus import HybPlusVend
from .hybrid import HybridVend, IdCapacityError, MaintenanceStats
from .columnar import ColumnarIndex
from .directed import DirectedVend
from .partial import PartialVend
from .persistence import IndexFormatError, load_index, save_index
from .range_based import RangeVend
from .score import ScoreReport, exact_vend_score, vend_score
from .sstree import SSTree
from .tuning import TuningResult, TuningStep, choose_k

__all__ = [
    "VendSolution",
    "NonedgeFilter",
    "NeighborFetch",
    "GraphNeighborFetch",
    "available_solutions",
    "create_solution",
    "register_solution",
    "BitVector",
    "BlockChoice",
    "select_block",
    "select_blocks",
    "PartialVend",
    "DirectedVend",
    "ColumnarIndex",
    "save_index",
    "load_index",
    "IndexFormatError",
    "RangeVend",
    "HashVend",
    "BitHashVend",
    "HybridVend",
    "HybPlusVend",
    "IdCapacityError",
    "MaintenanceStats",
    "SSTree",
    "ScoreReport",
    "CodeDescription",
    "IndexStatistics",
    "PairClassScores",
    "describe_code",
    "index_statistics",
    "score_breakdown",
    "vend_score",
    "exact_vend_score",
    "choose_k",
    "TuningResult",
    "TuningStep",
]
