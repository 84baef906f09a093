"""Tests for the runtime soundness auditor (repro.devtools.audit).

Covers the three differential checks — zero false no-edge verdicts,
scalar/batch agreement, post-maintenance validity — on healthy
solutions, and proves the auditor *catches* a deliberately broken
solution (a false no-edge verdict) and a stale-snapshot solution
(maintenance that forgets to invalidate the batch cache).
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import HybridVend, PartialVend, available_solutions, create_solution
from repro.core.base import endpoint_arrays
from repro.devtools import SoundnessAuditor
from repro.graph import powerlaw_graph


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(150, 6.0, seed=3)


@pytest.fixture(scope="module")
def auditor(graph):
    return SoundnessAuditor(graph, seed=3, pairs=400, updates=25,
                            scalar_sample=120)


class FalseNonedgeSolution(PartialVend):
    """Deliberately unsound: certifies one real edge as an NEpair."""

    name = "broken-partial"
    supports_maintenance = False

    def __init__(self, k, poisoned_edge, int_bits=32):
        super().__init__(k, int_bits)
        self._poisoned = tuple(sorted(poisoned_edge))

    def _is_poisoned(self, u, v):
        return tuple(sorted((u, v))) == self._poisoned

    def is_nonedge(self, u, v):
        if self._is_poisoned(u, v):
            return True
        return super().is_nonedge(u, v)

    def is_nonedge_batch(self, pairs_u, pairs_v=None):
        us, vs = endpoint_arrays(pairs_u, pairs_v)
        result = np.asarray(super().is_nonedge_batch(us, vs), dtype=bool)
        pu, pv = self._poisoned
        result |= ((us == pu) & (vs == pv)) | ((us == pv) & (vs == pu))
        return result


class ForgetfulHybrid(HybridVend):
    """Maintenance mutates codes but never drops or patches the batch
    snapshot: the old snapshot comes back and the dirty rows that would
    have repaired it are discarded."""

    name = "forgetful-hybrid"

    def insert_edge(self, u, v, fetch):
        snapshot = self._batch_index
        super().insert_edge(u, v, fetch)
        self._batch_index = snapshot  # lint: disable=R003 (test double)
        self._dirty_rows.clear()

    def delete_edge(self, u, v, fetch):
        snapshot = self._batch_index
        super().delete_edge(u, v, fetch)
        self._batch_index = snapshot  # lint: disable=R003 (test double)
        self._dirty_rows.clear()


def test_every_registered_solution_is_sound(graph, auditor):
    for name in available_solutions():
        report = auditor.audit(create_solution(name, k=5))
        assert report.ok, report.summary() + "\n" + "\n".join(
            v.format() for v in report.violations
        )
        assert report.edges_checked > 0
        assert report.pairs_checked > 0


def test_dynamic_solutions_audit_through_hooks(auditor):
    report = auditor.audit(HybridVend(k=5))
    assert report.ok
    assert report.maintenance_mode == "hooks"
    assert report.inserts_applied == 25
    assert report.deletes_applied > 0


def test_static_solutions_audit_through_rebuild(auditor):
    report = auditor.audit(PartialVend(k=5))
    assert report.ok
    assert report.maintenance_mode == "rebuild"
    assert report.inserts_applied == 25


def test_partial_detects_nonedges_at_all(auditor):
    # Guard against a vacuous audit: the workload must contain pairs
    # the solution actually certifies.
    report = auditor.audit(PartialVend(k=5))
    assert report.detections > 0


def test_auditor_catches_false_nonedge(graph, auditor):
    edge = sorted(graph.edges())[0]
    report = auditor.audit(FalseNonedgeSolution(5, edge), maintenance=False)
    assert not report.ok
    assert any(v.check == "false-nonedge" for v in report.violations)
    assert any(tuple(sorted(v.pair)) == tuple(edge)
               for v in report.violations)


def test_auditor_catches_stale_batch_snapshot(graph, auditor):
    report = auditor.audit(ForgetfulHybrid(k=5))
    assert not report.ok
    assert any(v.phase == "maintenance" and
               v.check in ("false-nonedge", "batch-mismatch")
               for v in report.violations)


def test_maintenance_skip_flag(auditor):
    report = auditor.audit(PartialVend(k=5), maintenance=False)
    assert report.ok
    assert report.maintenance_mode == "skipped"
    assert report.inserts_applied == 0


def test_auditor_does_not_mutate_callers_graph(graph):
    before = graph.num_edges
    SoundnessAuditor(graph, seed=1, pairs=100, updates=10,
                     scalar_sample=50).audit(PartialVend(k=5))
    assert graph.num_edges == before


def test_violation_cap(graph):
    edge = sorted(graph.edges())[0]
    auditor = SoundnessAuditor(graph, seed=3, pairs=200, updates=5,
                               scalar_sample=50, max_violations=3)
    report = auditor.audit(FalseNonedgeSolution(5, edge), maintenance=False)
    assert len(report.violations) <= 3


def test_cli_audit_sweep(capsys):
    code = cli_main([
        "audit", "--vertices", "120", "--avg-degree", "5",
        "--pairs", "200", "--updates", "10", "--k", "4", "--seed", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all" in out and "sound" in out
    for name in available_solutions():
        assert name in out


def test_cli_audit_single_solution(capsys):
    code = cli_main([
        "audit", "--solutions", "partial", "--vertices", "100",
        "--avg-degree", "4", "--pairs", "100", "--updates", "5", "--k", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "partial" in out
