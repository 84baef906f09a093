"""Tests for index save/load."""

import pytest

from repro.core import (
    HybPlusVend,
    HybridVend,
    IndexFormatError,
    RangeVend,
    load_index,
    save_index,
)
from repro.graph import powerlaw_graph

from .conftest import all_pairs


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(150, avg_degree=8, seed=30)


@pytest.mark.parametrize("cls", [HybridVend, HybPlusVend])
def test_roundtrip_answers_identically(tmp_path, graph, cls):
    original = cls(k=4)
    original.build(graph)
    path = tmp_path / "index.vend"
    written = save_index(original, path)
    assert written == path.stat().st_size
    restored = load_index(path)
    assert type(restored) is cls
    assert restored.k == original.k
    assert restored.id_bits == original.id_bits
    assert restored.num_codes == original.num_codes
    for u, v in all_pairs(graph):
        assert restored.is_nonedge(u, v) == original.is_nonedge(u, v)


def test_restored_index_supports_maintenance(tmp_path, graph):
    original = HybridVend(k=4)
    original.build(graph)
    path = tmp_path / "index.vend"
    save_index(original, path)
    restored = load_index(path)
    work = graph.copy()
    pair = next(
        (u, v) for u, v in all_pairs(work)
        if not work.has_edge(u, v) and restored.is_nonedge(u, v)
    )
    work.add_edge(*pair)
    restored.insert_edge(*pair, work.sorted_neighbors)
    assert not restored.is_nonedge(*pair)


def test_unbuilt_index_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_index(HybridVend(k=4), tmp_path / "x.vend")


def test_wrong_type_rejected(tmp_path, graph):
    solution = RangeVend(k=4)
    solution.build(graph)
    with pytest.raises(TypeError):
        save_index(solution, tmp_path / "x.vend")


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.vend"
    path.write_bytes(b"NOTANIDX" + b"\0" * 64)
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "tiny.vend"
    path.write_bytes(b"REPROVND")
    with pytest.raises(IndexFormatError, match="truncated"):
        load_index(path)


def test_truncated_body(tmp_path, graph):
    original = HybridVend(k=2)
    original.build(graph)
    path = tmp_path / "cut.vend"
    save_index(original, path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(IndexFormatError, match="expected"):
        load_index(path)


def test_scalar_preserved_for_hybplus(tmp_path, graph):
    original = HybPlusVend(k=4, scalar=8)
    original.build(graph)
    path = tmp_path / "s8.vend"
    save_index(original, path)
    restored = load_index(path)
    assert restored.scalar == 8


class TestCrashSafePersistence:
    """save_index must never destroy the previous good index."""

    def _saved(self, tmp_path, graph, k=4):
        original = HybridVend(k=k)
        original.build(graph)
        path = tmp_path / "index.vend"
        save_index(original, path)
        return original, path

    def test_interrupted_replace_keeps_old_index(self, tmp_path, graph,
                                                 monkeypatch):
        original, path = self._saved(tmp_path, graph)
        before = path.read_bytes()
        replacement = HybridVend(k=2)
        replacement.build(graph)

        def boom(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr("repro.core.persistence.os.replace", boom)
        with pytest.raises(OSError, match="before rename"):
            save_index(replacement, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no .tmp left behind
        restored = load_index(path)
        assert restored.k == original.k
        for u, v in list(all_pairs(graph))[:200]:
            assert restored.is_nonedge(u, v) == original.is_nonedge(u, v)

    def test_interrupted_fsync_keeps_old_index(self, tmp_path, graph,
                                               monkeypatch):
        original, path = self._saved(tmp_path, graph)
        before = path.read_bytes()

        def boom(fd):
            raise OSError("simulated crash during fsync")

        monkeypatch.setattr("repro.core.persistence.os.fsync", boom)
        with pytest.raises(OSError, match="during fsync"):
            save_index(original, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_successful_save_leaves_no_temp(self, tmp_path, graph):
        _, path = self._saved(tmp_path, graph)
        assert list(tmp_path.iterdir()) == [path]
        assert path.stat().st_size > 0

    def test_header_checksum_detects_corruption(self, tmp_path, graph):
        _, path = self._saved(tmp_path, graph)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF  # flip a bit inside the header fields
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="checksum"):
            load_index(path)

    def test_future_version_rejected(self, tmp_path, graph):
        """Versions other than the current one are refused, including
        the retired unchecksummed v1 header."""
        from repro.core.persistence import _HEADER_PREFIX

        _, path = self._saved(tmp_path, graph)
        saved = path.read_bytes()
        for version in (1, 99):
            data = bytearray(saved)
            fields = list(_HEADER_PREFIX.unpack_from(data))
            fields[1] = version
            data[:_HEADER_PREFIX.size] = _HEADER_PREFIX.pack(*fields)
            path.write_bytes(bytes(data))
            with pytest.raises(IndexFormatError,
                               match=f"unsupported version {version}"):
                load_index(path)
