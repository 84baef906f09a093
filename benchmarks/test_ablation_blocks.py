"""Ablation — block-selection strategy for the hybrid encoding.

Compares, at equal memory:
- ``first``  — always the leftmost block (basic-range idea, Fig. 3 left);
- ``shortlist`` — the default coverage-shortlist NT maximization;
- ``exhaustive`` — the paper's exact sliding-window selection.

Shape: NT-maximizing selection beats the naive leftmost choice, and
the shortlist tracks the exhaustive optimum closely at a fraction of
the build time.
"""

from repro.bench import (
    Table,
    bench_pairs,
    bench_scale,
    load_dataset,
    paper_id_bits,
    results_dir,
    timed,
)
from repro.core import HybridVend, vend_score
from repro.core.blocks import BLOCK_LEFT, BlockChoice
from repro.workloads import common_neighbor_pairs

K = 8
DATASET = "wiki"


class LeftmostHybrid(HybridVend):
    """Naive variant: always the leftmost feasible max-size block."""

    name = "hybrid-leftmost"

    def _select_blocks(self, lists, max_size):
        choices = []
        for neighbors in lists:
            size = min(max_size, len(neighbors) - 1)
            while size > 0 and self._slot_bits(size) < 1:
                size -= 1
            choices.append(BlockChoice(BLOCK_LEFT, 0, size, 0))
        return choices


def build_variant(graph, id_bits, budget):
    if budget == "leftmost":
        vend = LeftmostHybrid(k=K, id_bits=id_bits)
    else:
        vend = HybridVend(k=K, id_bits=id_bits, selection_budget=budget)
    vend.build(graph)
    return vend


def test_block_selection_ablation(once):
    table = Table(
        f"Ablation — block selection strategy ({DATASET}, k={K})",
        ["Strategy", "Score (CommPair)", "Build time"],
    )
    rows = {}

    def run():
        graph = load_dataset(DATASET)
        id_bits = paper_id_bits(DATASET)
        pairs = common_neighbor_pairs(graph, bench_pairs(), seed=31)
        for label, budget in (
            ("leftmost", "leftmost"),
            ("shortlist", 8),
            ("exhaustive", None),
        ):
            vend, build_time = timed(
                lambda b=budget: build_variant(graph, id_bits, b)
            )
            report = vend_score(vend, graph, pairs)
            assert report.false_positives == 0
            rows[label] = (report.score, build_time)
            table.add_row(label, f"{report.score:.4f}", f"{build_time:.2f}s")
        return rows

    once(run)
    table.add_note(f"scale={bench_scale()}")
    table.add_note("'leftmost' always takes the first max-size block; "
                   "'exhaustive' is the paper's sliding-window scan")
    table.emit(results_dir() / "ablation_blocks.txt")

    naive_score, _ = rows["leftmost"]
    short_score, short_time = rows["shortlist"]
    exact_score, exact_time = rows["exhaustive"]
    # NT maximization helps, and the shortlist is a faithful, faster
    # stand-in for the exhaustive optimum.
    assert short_score > naive_score
    assert exact_score > naive_score
    assert short_score >= exact_score - 0.02
    assert short_time <= exact_time
