"""The in-process workloads: randpair, commpair_hot and churn.

One closed-loop caller drives ``VendGraphDB`` through its public API.
A run is ``ROUNDS`` rounds, each on a freshly set-up DB: set up (timed,
for ``setup_s``), a share of the measured phase, a write block, then
close + reopen + rebuild + first probe batch (timed, for ``reopen_s``).
Every metric thus draws samples from the whole run, not from one stretch
of it.  An untraced randpair or commpair_hot round measures for
``--seconds / ROUNDS``; a churn round runs a fixed number of cycles.  A
traced run has two rounds of fixed work: untraced (the reference for
``bench.trace_overhead``), then traced.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from repro.workloads import OP_INSERT

from . import config, inputs, report, session
from .tracing import PER_LAYER, SpanRecorder, counters, layer_metrics


class PhaseResult:
    def __init__(self):
        self.ops = 0
        self.wall = 0.0
        self.probe_lat: list[float] = []
        self.write_lat: list[float] = []
        self.write_kinds: list[int] = []
        self.nonedges = 0
        self.writes: list[tuple[int, int, int]] = []
        self.window = (0.0, 0.0)
        # (wall clock, process CPU clock, ops completed so far) at the
        # start of the phase and after each batch or cycle.
        self.marks: list[tuple[float, float, int]] = []

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), time.process_time(),
                           self.ops))

    def slice_rates(self, clock: int = 1) -> list[float]:
        """Throughput of each of ``RATE_SLICES`` slices of the phase
        holding equal numbers of batches (churn: cycles), per second of
        the process's CPU time (``clock=1``) or of wall time (``0``)."""
        steps = len(self.marks) - 1
        cuts = np.linspace(0, steps, min(config.RATE_SLICES, steps) + 1)
        rates = []
        for lo, hi in zip(cuts[:-1].astype(int), cuts[1:].astype(int)):
            a, b = self.marks[lo], self.marks[hi]
            rates.append((b[2] - a[2]) / (b[clock] - a[clock]))
        return rates

    @property
    def ops_per_s(self) -> float:
        """Median throughput per CPU second over the phase's slices."""
        return report.median(self.slice_rates())


def _probe(db, us, vs, truth, nonedges, res: PhaseResult,
           tally: session.Tally) -> None:
    start = time.perf_counter()
    try:
        got = db.has_edge_batch(us, vs)
    except Exception as exc:  # a failed call is a failed op, not a crash
        tally.attempted += len(us)
        tally.fail(len(us), f"has_edge_batch: {exc!r}")
        return
    res.probe_lat.append(time.perf_counter() - start)
    res.ops += len(us)
    res.nonedges += nonedges
    tally.check(got, truth)


def _write(db, kind, u, v, expected, res: PhaseResult,
           tally: session.Tally) -> None:
    call = db.add_edge if kind == OP_INSERT else db.remove_edge
    start = time.perf_counter()
    try:
        changed = call(u, v)
    except Exception as exc:
        tally.attempted += 1
        tally.fail(1, f"write: {exc!r}")
        return
    res.write_lat.append(time.perf_counter() - start)
    res.write_kinds.append(kind)
    res.ops += 1
    res.writes.append((kind, u, v))
    tally.check([changed], [expected])


def probe_phase(db, pool: inputs.ProbePool, tally, *, seconds=None,
                batches=None) -> PhaseResult:
    """Closed-loop fixed-size batches over the cycled pool, for
    ``seconds`` or for exactly ``batches`` calls."""
    res = PhaseResult()
    res.mark()
    start = res.marks[0][0]
    i = 0
    while True:
        us, vs, truth, nonedges = pool.get(i)
        _probe(db, us, vs, truth, nonedges, res, tally)
        res.mark()
        i += 1
        if batches is not None:
            if i >= batches:
                break
        elif time.perf_counter() - start >= seconds:
            break
    end = time.perf_counter()
    res.wall, res.window = end - start, (start, end)
    return res


def churn_phase(db, cycles, tally) -> PhaseResult:
    """Probe runs alternating with write storms: every cycle of the
    stream, once."""
    res = PhaseResult()
    res.mark()
    start = res.marks[0][0]
    for cycle in cycles:
        for us, vs, truth, nonedges in cycle.probes:
            _probe(db, us, vs, truth, nonedges, res, tally)
        for kind, u, v, expected in cycle.writes:
            _write(db, kind, u, v, expected, res, tally)
        res.mark()
    end = time.perf_counter()
    res.wall, res.window = end - start, (start, end)
    return res


def write_block(db, ops, res: PhaseResult, shadow: inputs.Shadow,
                tally) -> None:
    """One block of the write sample; each write's expected return comes
    from the shadow, which replays it."""
    kinds, us, vs = ops
    for kind, u, v in zip(kinds.tolist(), us.tolist(), vs.tolist()):
        _write(db, kind, u, v, shadow.apply(kind, u, v), res, tally)


def reopen_checked(db, directory, check, writes, shadow: inputs.Shadow,
                   tally):
    """Close + reopen + rebuild + first probe batch (timed), then check
    that batch and both orientations of every pair in ``writes`` against
    the shadow.  Returns the reopened DB and the seconds the reopen took."""
    us, vs = check
    db, elapsed, verdicts = session.reopen(db, directory, us, vs)
    tally.check(verdicts, shadow.contains(us, vs))
    wus, wvs = session.visibility_pairs(writes)
    tally.check(db.has_edge_batch(wus, wvs), shadow.contains(wus, wvs))
    return db, elapsed


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    gi = inputs.GraphInputs()
    stamp = report.host_stamp(workload, seed, gi)
    tally = session.Tally()
    # A traced run has two rounds of fixed work: the untraced reference
    # for bench.trace_overhead, then the traced round.
    rounds = 2 if trace else config.ROUNDS
    work = config.TRACE_WORK_PER_S.get(workload, 0) * max(1, round(seconds / 2))
    blocks = inputs.write_blocks(gi, seed, rounds)
    if workload == "churn":
        n_cycles = work if trace else max(1, round(
            seconds * config.CHURN_CYCLES_PER_S / rounds))
        cycles = inputs.churn_cycles(gi, seed, n_cycles)
        warm = inputs.probe_pool(gi, workload, seed, config.WARM_BATCHES,
                                stream=1)

        def phase(db) -> PhaseResult:
            return churn_phase(db, cycles, tally)
    else:
        pool = inputs.probe_pool(gi, workload, seed, config.POOL_BATCHES)
        # Warm up on the measured pool itself, so the hot cache holds
        # the head the measured phase asks for.
        warm = pool

        def phase(db) -> PhaseResult:
            if trace:
                return probe_phase(db, pool, tally, batches=work)
            return probe_phase(db, pool, tally, seconds=seconds / rounds)
    check = warm.get(0)[:2]

    report.freeze_inputs()
    base = report.ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    steal0 = report.cpu_times()
    rss0 = report.rss_bytes()
    setups: list[float] = []
    reopens: list[float] = []
    phases: list[PhaseResult] = []
    sampled = PhaseResult()  # the write latencies reported
    recorder = SpanRecorder() if trace else None
    try:
        for rnd in range(rounds):
            directory = base / f"db{rnd}"
            start = time.perf_counter()
            db = session.set_up(gi, directory, warm, config.WARM_BATCHES,
                                tally)
            setups.append(time.perf_counter() - start)
            traced = trace and rnd == rounds - 1
            if traced:
                before = counters(db)
                recorder.install()
            res = phase(db)
            phases.append(res)
            if traced:
                probed = counters(db)
                recorder.note_threads()

            # A write block, then the reopen.  Every executed write goes
            # into the shadow, for the checks after the reopen.  Write
            # latency comes from churn's storms, elsewhere from the block.
            shadow = gi.shadow()
            for kind, u, v in res.writes:
                shadow.apply(kind, u, v)
            block = PhaseResult()
            write_block(db, blocks[rnd], block, shadow, tally)
            writes = res.writes + block.writes
            if traced:
                after = counters(db)
                traced_writes = len(writes)
            db, elapsed = reopen_checked(db, directory, check, writes,
                                         shadow, tally)
            reopens.append(elapsed)
            if traced:
                # The traced window ends with the reopen.
                recorder.uninstall()
            source = res if workload == "churn" else block
            sampled.write_lat += source.write_lat
            sampled.write_kinds += source.write_kinds
            if rnd == rounds - 1:
                stored = session.log_bytes(directory)
                index_bytes = db.index_memory_bytes()
                rss_growth = report.rss_bytes() - rss0
            db.close()
            shutil.rmtree(directory)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    slice_rates = [r for p in phases for r in p.slice_rates()]
    values, notes = report.summarize(
        gi, setups=setups, reopens=reopens,
        probe_lat=[x for p in phases for x in p.probe_lat],
        ops_per_s=report.median(slice_rates),
        write_lat=sampled.write_lat,
        write_kinds=sampled.write_kinds, index_bytes=index_bytes,
        log_bytes=stored, live_edges=shadow.num_edges,
        rss_growth=rss_growth, tally=tally)
    notes["ops_total_per_wall_s"] = (sum(p.ops for p in phases)
                                     / sum(p.wall for p in phases))
    notes["slice_ops_per_cpu_s"] = slice_rates
    notes["slice_ops_per_wall_s"] = [r for p in phases
                                     for r in p.slice_rates(clock=0)]
    notes["host_steal_share"] = report.steal_share(steal0)
    notes["write_source"] = ("churn storms" if workload == "churn"
                             else "the write block of each round")
    if trace:
        layer, coverage = layer_metrics(
            recorder.spans, res.window, before, probed, after,
            writes=traced_writes, nonedges=res.nonedges,
            ops_traced=res.ops_per_s, ops_untraced=phases[0].ops_per_s)
        recorder.dump(report.ROOT / ".perfbench" / "traces"
                      / f"{workload}-seed{seed}.json",
                      {"stamp": stamp, "per_layer": layer,
                       "coverage_by_thread": {str(k): v for k, v
                                              in coverage.items()}})
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
    else:
        metrics = report.end_to_end(values)
    report.emit(stamp, metrics, notes, tally.attempted, tally.failed,
                tally.failed == 0)
    return 0 if tally.failed == 0 else 1
