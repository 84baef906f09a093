"""Fault injection for the storage layer.

A crash-safety claim is only as good as the harness that attacks it.
``FaultInjectingKVStore`` wraps any KV store with:

- **injected IO errors** — each read/write attempt fails with
  :class:`InjectedIOError` at a configurable probability;
- **injected latency** — per-operation sleeps that model a saturated
  or remote disk;
- **torn-write-on-crash simulation** — a ``put`` appends only a prefix
  of the real on-disk record, then the wrapper behaves like a killed
  process (every later operation raises :class:`SimulatedCrashError`);
  reopening the path exercises the replay/truncate recovery path;
- **retry with exponential backoff** — transient ``OSError`` failures
  (injected or real) are retried up to ``max_retries`` times; a store
  that needed retries, or exhausted them, latches ``degraded = True``,
  which :class:`~repro.storage.graphstore.GraphStore` and
  ``EdgeQueryEngine.QueryStats`` surface to callers.

Randomness is seeded — ``FaultConfig.from_env`` reads the
``REPRO_FAULT_SEED`` environment variable so CI can sweep seeds while
each run stays reproducible.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, replace
from random import Random

from ..obs import FaultStats, ReadReceipt, StorageStats
from .kvstore import DiskKVStore

__all__ = [
    "FaultConfig",
    "FaultStats",
    "FaultInjectingKVStore",
    "InjectedIOError",
    "SimulatedCrashError",
    "FAULT_SEED_ENV",
]

logger = logging.getLogger(__name__)

#: Environment variable CI uses to sweep fault-injection seeds.
FAULT_SEED_ENV = "REPRO_FAULT_SEED"


class InjectedIOError(IOError):
    """A transient IO failure injected by :class:`FaultInjectingKVStore`."""


class SimulatedCrashError(RuntimeError):
    """The wrapped store 'crashed' (kill-9 semantics): a torn record was
    left on disk and no further operations are possible through this
    wrapper.  Reopen the backing path to recover."""


@dataclass
class FaultConfig:
    """Probabilities and pacing for injected faults.

    Rates are per *attempt*: an operation retried after an injected
    error rolls the dice again on each retry.  ``torn_write_rate``
    applies per ``put`` and is terminal — it tears the record on disk
    and crashes the wrapper, so it is never retried.
    """

    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    read_latency: float = 0.0   # seconds per read attempt
    write_latency: float = 0.0  # seconds per write attempt
    torn_write_rate: float = 0.0
    seed: int | None = None
    max_retries: int = 3
    backoff_base: float = 0.0   # 0 keeps tests fast; real deployments > 0
    backoff_factor: float = 2.0
    #: Hard ceiling on any single backoff sleep.  Without it the
    #: exponential schedule is unbounded — at factor 2 a shared-fault
    #: burst can park every client in multi-second sleeps.
    backoff_max: float = 0.25
    #: Full jitter (AWS-style): each sleep is uniform in
    #: ``[0, min(backoff_max, base * factor**n)]``, drawn from a
    #: dedicated RNG derived from ``seed`` so retry pacing is
    #: reproducible under ``$REPRO_FAULT_SEED`` *and* does not perturb
    #: the fault-injection dice.  Disable for fixed deterministic
    #: delays (the pre-jitter behavior).
    jitter: bool = True

    @classmethod
    def from_env(cls, **overrides) -> "FaultConfig":
        """Build a config seeded from ``$REPRO_FAULT_SEED`` (default 0)."""
        seed = int(os.environ.get(FAULT_SEED_ENV, "0"))
        return replace(cls(seed=seed), **overrides)


class FaultInjectingKVStore:
    """Wrap a KV store with fault injection and retry-with-backoff.

    Implements the full store interface, so it drops into
    ``GraphStore(kv=FaultInjectingKVStore(DiskKVStore(path), cfg))``
    and everything above (engine, database facade) runs unmodified.

    ``degraded`` latches True the first time an operation needs a
    retry or fails permanently, and stays True until
    :meth:`reset_degraded` — the signal a serving layer would use to
    shed load or alert.
    """

    def __init__(self, inner, config: FaultConfig | None = None):
        self._inner = inner
        self.config = config or FaultConfig()
        self._rng = Random(self.config.seed)
        # Separate stream: jitter draws must not advance the fault
        # dice, or enabling backoff would change which operations fail.
        seed = self.config.seed
        self._backoff_rng = Random(
            None if seed is None else seed ^ 0x9E3779B9)
        self.fault_stats = FaultStats()
        self.degraded = False
        self._crashed = False

    # -- plumbing ----------------------------------------------------------

    @property
    def inner(self):
        return self._inner

    @property
    def stats(self) -> StorageStats:
        return self._inner.stats

    @property
    def path(self):
        return getattr(self._inner, "path", None)

    def reset_degraded(self) -> None:
        self.degraded = False

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, key: int) -> bool:
        return key in self._inner

    def keys(self):
        return self._inner.keys()

    def _check_alive(self) -> None:
        if self._crashed:
            raise SimulatedCrashError(
                "store crashed after a torn write; reopen the log to recover"
            )

    def _sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def _backoff_delay(self, try_no: int) -> float:
        """Sleep before retry ``try_no``: capped exponential, full jitter.

        The uncapped, jitterless schedule this replaces had both
        retry-storm failure modes: no ceiling (sleeps grow without
        bound) and lockstep synchronization (every client that saw the
        same shared fault retried at the same instant, re-colliding on
        each round).  The cap bounds the worst sleep at
        ``backoff_max``; full jitter decorrelates the herd while
        keeping the *expected* pacing exponential.
        """
        cfg = self.config
        delay = cfg.backoff_base * (cfg.backoff_factor ** try_no)
        delay = min(delay, cfg.backoff_max)
        if delay <= 0:
            return 0.0
        if cfg.jitter:
            return self._backoff_rng.uniform(0.0, delay)
        return delay

    def _with_retries(self, attempt):
        """Run ``attempt`` with capped, jittered backoff on ``OSError``."""
        self.fault_stats.inc("operations")
        for try_no in range(self.config.max_retries + 1):
            try:
                return attempt()
            except OSError:
                self.degraded = True
                if try_no == self.config.max_retries:
                    self.fault_stats.inc("gave_up")
                    raise
                self.fault_stats.inc("retries")
                self._sleep(self._backoff_delay(try_no))
        raise AssertionError("unreachable: the final retry re-raises")

    def _maybe_fail_read(self) -> None:
        self._sleep(self.config.read_latency)
        if self._rng.random() < self.config.read_error_rate:
            self.fault_stats.inc("injected_read_errors")
            raise InjectedIOError("injected read error")

    def _maybe_fail_write(self) -> None:
        self._sleep(self.config.write_latency)
        if self._rng.random() < self.config.write_error_rate:
            self.fault_stats.inc("injected_write_errors")
            raise InjectedIOError("injected write error")

    # -- reads -------------------------------------------------------------

    def get(self, key: int, receipt: ReadReceipt | None = None):
        self._check_alive()

        def attempt():
            self._maybe_fail_read()
            return self._inner.get(key, receipt=receipt)

        return self._with_retries(attempt)

    def get_many(self, keys, receipt: ReadReceipt | None = None):
        self._check_alive()
        keys = list(keys)

        def attempt():
            self._maybe_fail_read()
            return self._inner.get_many(keys, receipt=receipt)

        return self._with_retries(attempt)

    def get_many_packed(self, keys, receipt: ReadReceipt | None = None):
        self._check_alive()

        def attempt():
            self._maybe_fail_read()
            return self._inner.get_many_packed(keys, receipt=receipt)

        return self._with_retries(attempt)

    # -- writes ------------------------------------------------------------

    def put(self, key: int, value: bytes) -> None:
        self._check_alive()
        if (self.config.torn_write_rate > 0
                and isinstance(self._inner, DiskKVStore)
                and self._rng.random() < self.config.torn_write_rate):
            self._tear_and_crash(key, value)

        def attempt():
            self._maybe_fail_write()
            return self._inner.put(key, value)

        return self._with_retries(attempt)

    def delete(self, key: int) -> bool:
        self._check_alive()

        def attempt():
            self._maybe_fail_write()
            return self._inner.delete(key)

        return self._with_retries(attempt)

    def _tear_and_crash(self, key: int, value: bytes) -> None:
        """Append a strict prefix of the real record, then die.

        This is the kill-9 moment the v2 log format exists for: the
        record's frame may land intact while its payload (and crc
        coverage) does not.  The wrapper is unusable afterwards, like
        the process that held the file descriptor.
        """
        record = self._inner.encode_put_record(key, value)
        cut = self._rng.randrange(1, len(record))
        handle = self._inner._file
        handle.seek(0, os.SEEK_END)
        handle.write(record[:cut])
        handle.flush()
        self._inner.close()
        self.fault_stats.inc("torn_writes")
        self.degraded = True
        self._crashed = True
        logger.warning(
            "simulated crash: tore put(key=%d) at byte %d/%d in %s",
            key, cut, len(record), self.path,
        )
        raise SimulatedCrashError(
            f"torn write for key {key}: {cut}/{len(record)} bytes reached disk"
        )

    # -- maintenance -------------------------------------------------------

    def flush(self, sync: bool = False) -> None:
        self._check_alive()
        self._inner.flush(sync)

    def compact(self) -> int:
        self._check_alive()

        def attempt():
            self._maybe_fail_write()
            return self._inner.compact()

        return self._with_retries(attempt)

    def close(self) -> None:
        if not self._crashed:
            self._inner.close()

    def __enter__(self) -> "FaultInjectingKVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
