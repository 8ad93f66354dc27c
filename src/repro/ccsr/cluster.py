"""One edge-isomorphism cluster and its compressed CSR arrays.

Section IV: a cluster is stored as a CSR — a row index ``I_R`` and a column
index ``I_C``. Unlike the standard CSR whose ``I_R`` has one slot per graph
vertex (total ``2c(|V|+1)`` across ``c`` clusters), the paper's variant
run-length compresses ``I_R`` so that each edge contributes at most two
integers, bounding the total row-index storage by ``4|E|``. Reading a
cluster for a task *decompresses* it back into a standard CSR for O(1)
neighbor lookup.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.ccsr.key import ClusterKey

_EMPTY = np.empty(0, dtype=np.int64)


class CompressedCSR:
    """A CSR over one direction of a cluster, stored compressed.

    Compressed form (always present):

    * ``rows`` — sorted distinct source vertices that have at least one edge,
    * ``row_counts`` — the run-length "repeat count": the degree of each row,
    * ``cols`` — neighbor ids, concatenated per row, each run sorted.

    Decompressed form (built on demand by :meth:`decompress`):

    * ``full_offsets`` — the standard ``I_R`` of length ``num_vertices + 1``
      giving O(1) ``cols[I_R[v]:I_R[v+1]]`` neighbor slices.

    Admissible sets (built on demand by :meth:`rows_at_least`): per
    length ``k`` asked for, the set of rows holding at least ``k``
    entries. :meth:`insert` and :meth:`remove` keep each one live from
    the length change of the row they patch.
    """

    __slots__ = (
        "rows",
        "row_counts",
        "cols",
        "_offsets",
        "full_offsets",
        "num_vertices",
        "_at_least",
    )

    def __init__(
        self, adjacency: dict[int, list[int]], num_vertices: int
    ) -> None:
        rows = sorted(adjacency)
        cols: list[int] = []
        for r in rows:
            cols.extend(sorted(adjacency[r]))
        self._adopt(
            np.asarray(rows, dtype=np.int64),
            np.asarray([len(adjacency[r]) for r in rows], dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            num_vertices,
        )

    @classmethod
    def from_arrays(
        cls,
        rows: np.ndarray,
        row_counts: np.ndarray,
        cols: np.ndarray,
        num_vertices: int,
    ) -> CompressedCSR:
        """A CSR over already-compressed arrays (the store loader's path)."""
        csr = cls.__new__(cls)
        csr._adopt(rows, row_counts, cols, num_vertices)
        return csr

    def _adopt(
        self,
        rows: np.ndarray,
        row_counts: np.ndarray,
        cols: np.ndarray,
        num_vertices: int,
    ) -> None:
        """Set every slot; the one assignment path of both constructors."""
        self.num_vertices = num_vertices
        self.rows = rows
        self.row_counts = row_counts
        self.cols = cols
        # Offsets into cols per *stored* row; len(rows)+1.
        self._offsets = np.concatenate(([0], np.cumsum(row_counts))).astype(
            np.int64
        )
        self.full_offsets: np.ndarray | None = None
        self._at_least: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Length of ``I_C`` — the paper's cluster size."""
        return int(self.cols.shape[0])

    @property
    def is_decompressed(self) -> bool:
        return self.full_offsets is not None

    @property
    def compressed_index_length(self) -> int:
        """Integers in the compressed ``I_R`` (value + repeat count)."""
        return 2 * int(self.rows.shape[0])

    def standard_index_length(self) -> int:
        """Integers a standard (uncompressed) ``I_R`` would need."""
        return self.num_vertices + 1

    def nbytes(self) -> int:
        """Approximate resident bytes of the stored arrays."""
        total = self.rows.nbytes + self.row_counts.nbytes + self.cols.nbytes
        total += self._offsets.nbytes
        if self.full_offsets is not None:
            total += self.full_offsets.nbytes
        return total

    # ------------------------------------------------------------------
    def decompress(self) -> None:
        """Materialize the standard ``I_R`` for O(1) neighbor access."""
        if self.full_offsets is not None:
            return
        full = np.zeros(self.num_vertices + 1, dtype=np.int64)
        if self.rows.shape[0]:
            full[self.rows + 1] = self.row_counts
            np.cumsum(full, out=full)
        self.full_offsets = full

    def neighbors(self, v: int) -> np.ndarray:
        """The sorted neighbor array of ``v`` (empty if none).

        O(1) when decompressed; a binary search over stored rows otherwise.
        """
        if self.full_offsets is not None:
            start, stop = self.full_offsets[v], self.full_offsets[v + 1]
            return self.cols[start:stop]
        idx = np.searchsorted(self.rows, v)
        if idx == self.rows.shape[0] or self.rows[idx] != v:
            return _EMPTY
        return self.cols[self._offsets[idx] : self._offsets[idx + 1]]

    def insert(self, src: int, dst: int) -> None:
        """Patch the absent entry ``src -> dst`` in, keeping every run
        sorted (a new row joins ``rows_at_least(1)``)."""
        i = int(np.searchsorted(self.rows, src))
        start = int(self._offsets[i])
        if i == self.rows.shape[0] or self.rows[i] != src:
            at = start
            self.rows = np.insert(self.rows, i, src)
            self.row_counts = np.insert(self.row_counts, i, 1)
            # The new row's end offset; the shift below makes it start + 1.
            self._offsets = np.insert(self._offsets, i + 1, start)
            length = 1
        else:
            stop = int(self._offsets[i + 1])
            at = start + int(np.searchsorted(self.cols[start:stop], dst))
            self.row_counts[i] += 1
            length = stop - start + 1
        admitted = self._at_least.get(length)
        if admitted is not None:
            admitted.add(src)
        self.cols = np.insert(self.cols, at, dst)
        self._offsets[i + 1 :] += 1
        if self.full_offsets is not None:
            self.full_offsets[src + 1 :] += 1

    def remove(self, src: int, dst: int) -> None:
        """Patch the present entry ``src -> dst`` out; a row it empties is
        dropped (and leaves ``rows_at_least(1)``)."""
        i = int(np.searchsorted(self.rows, src))
        start, stop = int(self._offsets[i]), int(self._offsets[i + 1])
        at = start + int(np.searchsorted(self.cols[start:stop], dst))
        admitted = self._at_least.get(stop - start)
        if admitted is not None:
            admitted.discard(src)
        self.cols = np.delete(self.cols, at)
        self._offsets[i + 1 :] -= 1
        if self.full_offsets is not None:
            self.full_offsets[src + 1 :] -= 1
        if stop - start == 1:
            self.rows = np.delete(self.rows, i)
            self.row_counts = np.delete(self.row_counts, i)
            self._offsets = np.delete(self._offsets, i + 1)
        else:
            self.row_counts[i] -= 1

    def rows_at_least(self, k: int) -> set[int]:
        """The rows holding at least ``k`` entries, built on first use and
        kept live by :meth:`insert` and :meth:`remove`: the matcher's
        admissible set for a pattern vertex with ``k`` edges in this CSR,
        and for ``k == 1`` its static candidate pool (every row). The set
        is shared; callers must not mutate it."""
        admitted = self._at_least.get(k)
        if admitted is None:
            admitted = self._at_least[k] = set(
                self.rows[self.row_counts >= k].tolist()
            )
        return admitted

    def built_rows_at_least(self, k: int) -> set[int] | None:
        """The set :meth:`rows_at_least` built for ``k``, or None: a
        lookup that never builds one (so never adds one to patch)."""
        return self._at_least.get(k)

    def degree(self, v: int) -> int:
        return int(self.neighbors(v).shape[0])

    def contains(self, src: int, dst: int) -> bool:
        """Binary-search membership test for the edge ``src -> dst``."""
        nbrs = self.neighbors(src)
        idx = np.searchsorted(nbrs, dst)
        return idx < nbrs.shape[0] and nbrs[idx] == dst

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield every (src, dst) entry stored in this CSR."""
        for i, r in enumerate(self.rows):
            for c in self.cols[self._offsets[i] : self._offsets[i + 1]]:
                yield int(r), int(c)

    def source_vertices(self) -> np.ndarray:
        """Sorted distinct vertices with at least one outgoing entry."""
        return self.rows


class Cluster:
    """One cluster of mutually isomorphic edges.

    Directed clusters keep two CSRs — outgoing (``src``'s out-neighbors) and
    incoming (``dst``'s in-neighbors) — so both traversal directions are
    constant-time. An undirected cluster needs only one CSR because each
    undirected edge is stored in both orientations inside it.

    The matcher reads rows as ``frozenset`` views (:meth:`successor_set`,
    :meth:`predecessor_set`), built on a row's first read and cached here,
    so they are dropped with the cluster. The numpy arrays stay the
    storage: :meth:`nbytes` counts only them. An update patches the
    cluster in place (:meth:`insert`, :meth:`remove`), so the object, and
    every row view the update does not touch, outlives it, and so do the
    admissible sets (:meth:`rows_at_least`), which the patch keeps live.
    """

    __slots__ = ("key", "out_csr", "in_csr", "_out_rows", "_in_rows", "__weakref__")

    def __init__(
        self,
        key: ClusterKey,
        edges: Sequence[tuple[int, int]],
        num_vertices: int,
    ) -> None:
        """``edges`` are (src, dst) pairs; for an undirected cluster each
        undirected edge must appear exactly once (either orientation)."""
        out: dict[int, list[int]] = {}
        if key.directed:
            incoming: dict[int, list[int]] = {}
            for src, dst in edges:
                out.setdefault(src, []).append(dst)
                incoming.setdefault(dst, []).append(src)
            self._adopt(
                key,
                CompressedCSR(out, num_vertices),
                CompressedCSR(incoming, num_vertices),
            )
        else:
            for src, dst in edges:
                out.setdefault(src, []).append(dst)
                out.setdefault(dst, []).append(src)
            self._adopt(key, CompressedCSR(out, num_vertices), None)

    @classmethod
    def from_csrs(
        cls,
        key: ClusterKey,
        out_csr: CompressedCSR,
        in_csr: CompressedCSR | None,
    ) -> Cluster:
        """A cluster over prebuilt CSRs (``in_csr`` only when directed)."""
        cluster = cls.__new__(cls)
        cluster._adopt(key, out_csr, in_csr)
        return cluster

    def _adopt(
        self,
        key: ClusterKey,
        out_csr: CompressedCSR,
        in_csr: CompressedCSR | None,
    ) -> None:
        """Set every slot; the one assignment path of both constructors."""
        self.key = key
        self.out_csr = out_csr
        self.in_csr = in_csr
        # Row views, filled one row at a time by successor_set /
        # predecessor_set. An undirected cluster has one CSR, so one cache.
        self._out_rows: dict[int, frozenset[int]] = {}
        self._in_rows = self._out_rows if in_csr is None else {}

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """|I_C| of the (outgoing) CSR — the paper's cluster size measure."""
        return self.out_csr.num_entries

    @property
    def num_edges(self) -> int:
        """Graph edges in this cluster (an undirected edge counts once)."""
        if self.key.directed:
            return self.out_csr.num_entries
        return self.out_csr.num_entries // 2

    def decompress(self) -> None:
        self.out_csr.decompress()
        if self.in_csr is not None:
            self.in_csr.decompress()

    @property
    def is_decompressed(self) -> bool:
        return self.out_csr.is_decompressed

    def nbytes(self) -> int:
        total = self.out_csr.nbytes()
        if self.in_csr is not None:
            total += self.in_csr.nbytes()
        return total

    # ------------------------------------------------------------------
    def successors(self, v: int) -> np.ndarray:
        """Vertices reachable from ``v`` along this cluster's edges."""
        return self.out_csr.neighbors(v)

    def predecessors(self, v: int) -> np.ndarray:
        """Vertices with an edge into ``v`` in this cluster."""
        if self.in_csr is None:
            return self.out_csr.neighbors(v)
        return self.in_csr.neighbors(v)

    def successor_set(self, v: int) -> frozenset[int]:
        """:meth:`successors` as a set, built on first read and cached on
        the cluster (the candidate kernel's operand)."""
        row = self._out_rows.get(v)
        if row is None:
            row = self._out_rows[v] = frozenset(self.out_csr.neighbors(v).tolist())
        return row

    def predecessor_set(self, v: int) -> frozenset[int]:
        """:meth:`predecessors` as a set, cached like :meth:`successor_set`."""
        row = self._in_rows.get(v)
        if row is None:
            csr = self.out_csr if self.in_csr is None else self.in_csr
            row = self._in_rows[v] = frozenset(csr.neighbors(v).tolist())
        return row

    def rows_at_least(self, successors: bool, k: int) -> set[int]:
        """The live set of vertices whose successor (else predecessor) row
        holds at least ``k`` entries. An undirected cluster has one CSR,
        so both directions read the same set."""
        return self._csr(successors).rows_at_least(k)

    def built_rows_at_least(self, successors: bool, k: int) -> set[int] | None:
        """:meth:`rows_at_least` if that set was built, else None; never
        builds one."""
        return self._csr(successors).built_rows_at_least(k)

    def _csr(self, successors: bool) -> CompressedCSR:
        return self.out_csr if successors or self.in_csr is None else self.in_csr

    def insert(self, src: int, dst: int) -> None:
        """Patch one absent edge in place: both CSR entries (each keeping
        its admissible sets, static pools included, live), and the cached
        row views of the two rows it touches are dropped."""
        self.out_csr.insert(src, dst)
        (self.out_csr if self.in_csr is None else self.in_csr).insert(dst, src)
        self._out_rows.pop(src, None)
        self._in_rows.pop(dst, None)

    def remove(self, src: int, dst: int) -> None:
        """Patch one present edge out; the mirror of :meth:`insert`."""
        self.out_csr.remove(src, dst)
        (self.out_csr if self.in_csr is None else self.in_csr).remove(dst, src)
        self._out_rows.pop(src, None)
        self._in_rows.pop(dst, None)

    def contains_edge(self, src: int, dst: int) -> bool:
        """True if the cluster stores an edge allowing ``src -> dst``."""
        return self.out_csr.contains(src, dst)

    def touches(self, a: int, b: int) -> bool:
        """True if *any* edge of this cluster connects ``a`` and ``b``
        regardless of direction (used by negation checks)."""
        if self.out_csr.contains(a, b):
            return True
        if self.key.directed:
            return self.out_csr.contains(b, a)
        return False

    def source_vertices(self) -> np.ndarray:
        """Sorted distinct vertices usable as edge sources."""
        return self.out_csr.source_vertices()

    def destination_vertices(self) -> np.ndarray:
        """Sorted distinct vertices usable as edge destinations."""
        if self.in_csr is None:
            return self.out_csr.source_vertices()
        return self.in_csr.source_vertices()

    def iter_directed_entries(self) -> Iterator[tuple[int, int]]:
        """Yield each stored (src, dst) orientation once."""
        return self.out_csr.iter_edges()

    def __repr__(self) -> str:
        return f"<Cluster {self.key} entries={self.num_entries}>"
