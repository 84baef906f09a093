"""Save / load built VEND indexes.

A graph database restarts; the in-memory codes must come back without
a full re-encode (Gsh's build takes the paper 23.6 hours).  The format
is a small self-describing binary file:

``REPROVND`` magic, format version, solution name, layout parameters
(k, I, I', max ID, SS-tree scalar), a CRC32 of the header fields, then
one ``(vertex id, code)`` record per vertex with codes packed at
``k*I/8`` bytes.

Because the saved index is exactly the artifact that exists to avoid a
23.6-hour rebuild, :func:`save_index` is crash-safe: bytes stream into
a ``<name>.tmp`` sibling which is flushed, fsynced, and atomically
swapped in with ``os.replace`` — an interrupted save leaves the
previous good index untouched.  :func:`load_index` verifies the header
checksum (format v2) and refuses every other version.

Only the hybrid family is persistable — the baselines rebuild in
seconds and the Bloom comparators are not part of the product surface.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

from .bitvector import BitVector
from .hybplus import HybPlusVend
from .hybrid import HybridVend

__all__ = ["save_index", "load_index", "IndexFormatError"]

_MAGIC = b"REPROVND"
_VERSION = 2
_HEADER_PREFIX = struct.Struct("<8sHH16sHHHHQQ")
# magic, version, reserved, name, k, int_bits, id_bits, scalar,
# max_id, num_codes
_HEADER_CRC = struct.Struct("<I")  # crc32 of the packed prefix (v2 only)


class IndexFormatError(RuntimeError):
    """The file is not a valid VEND index of a supported version."""


def save_index(solution: HybridVend, path: str | Path) -> int:
    """Serialize a built hybrid/hyb+ index; returns bytes written.

    The write is atomic: a crash at any point leaves either the old
    file or the new one at ``path``, never a torn mixture.  Raises
    ``ValueError`` for an unbuilt index (nothing to save).
    """
    if not isinstance(solution, HybridVend):
        raise TypeError(f"cannot persist a {type(solution).__name__}")
    if solution.id_bits == 0:
        raise ValueError("index has not been built; nothing to save")
    scalar = getattr(solution, "scalar", 0)
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    written = 0
    try:
        with open(tmp_path, "wb") as handle:
            prefix = _HEADER_PREFIX.pack(
                _MAGIC, _VERSION, 0, solution.name.encode().ljust(16, b"\0"),
                solution.k, solution.int_bits, solution.id_bits, scalar,
                solution._max_id, solution.num_codes,
            )
            header = prefix + _HEADER_CRC.pack(zlib.crc32(prefix))
            handle.write(header)
            written += len(header)
            for v in sorted(solution._codes):
                record = struct.pack("<Q", v) + solution._codes[v].to_bytes()
                handle.write(record)
                written += len(record)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    try:
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return written


def load_index(path: str | Path) -> HybridVend:
    """Reconstruct a hybrid/hyb+ index saved by :func:`save_index`.

    Accepts only the current checksummed v2 header.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER_PREFIX.size:
        raise IndexFormatError(f"{path}: truncated header")
    (magic, version, _reserved, raw_name, k, int_bits, id_bits, scalar,
     max_id, num_codes) = _HEADER_PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise IndexFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise IndexFormatError(f"{path}: unsupported version {version}")
    header_size = _HEADER_PREFIX.size + _HEADER_CRC.size
    if len(data) < header_size:
        raise IndexFormatError(f"{path}: truncated header")
    (stored_crc,) = _HEADER_CRC.unpack_from(data, _HEADER_PREFIX.size)
    if zlib.crc32(data[:_HEADER_PREFIX.size]) != stored_crc:
        raise IndexFormatError(f"{path}: header checksum mismatch")
    name = raw_name.rstrip(b"\0").decode()
    if name == "hybrid":
        solution: HybridVend = HybridVend(
            k=k, int_bits=int_bits, id_bits=id_bits
        )
    elif name == "hyb+":
        solution = HybPlusVend(
            k=k, int_bits=int_bits, id_bits=id_bits, scalar=scalar
        )
    else:
        raise IndexFormatError(f"{path}: unknown solution {name!r}")
    solution._configure_layout(max(max_id, 1))
    solution._max_id = max_id
    code_bytes = solution.total_bits // 8
    record = struct.Struct(f"<Q{code_bytes}s")
    expected = header_size + num_codes * record.size
    if len(data) != expected:
        raise IndexFormatError(
            f"{path}: expected {expected} bytes, found {len(data)}"
        )
    offset = header_size
    for _ in range(num_codes):
        v, blob = record.unpack_from(data, offset)
        solution._codes[v] = BitVector.from_bytes(blob, solution.total_bits)
        offset += record.size
    return solution
