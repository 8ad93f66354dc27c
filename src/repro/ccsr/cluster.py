"""One edge-isomorphism cluster and its compressed CSR arrays.

Section IV: a cluster is stored as a CSR — a row index ``I_R`` and a column
index ``I_C``. Unlike the standard CSR whose ``I_R`` has one slot per graph
vertex (total ``2c(|V|+1)`` across ``c`` clusters), the paper's variant
run-length compresses ``I_R`` so that each edge contributes at most two
integers, bounding the total row-index storage by ``4|E|``. Reading a
cluster for a task *decompresses* it back into a standard CSR for O(1)
neighbor lookup.

Each CSR also keeps one dict from row id to that row's current
``frozenset``: the matcher's row views, and the rows changed since the
arrays were last built. An edge update replaces one row's set there and
copies no array; a reader of the arrays folds the changed rows into
fresh ones first.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.ccsr.key import ClusterKey

_EMPTY = np.empty(0, dtype=np.int64)


class CompressedCSR:
    """A CSR over one direction of a cluster, stored compressed.

    Compressed form (the arrays):

    * ``rows`` — sorted distinct source vertices that have at least one edge,
    * ``row_counts`` — the run-length "repeat count": the degree of each row,
    * ``cols`` — neighbor ids, concatenated per row, each run sorted.

    Decompressed form (built on demand by :meth:`decompress`):

    * ``full_offsets`` — the standard ``I_R`` of length ``num_vertices + 1``
      giving O(1) ``cols[I_R[v]:I_R[v+1]]`` neighbor slices.

    Row sets (:meth:`row`): one dict from row id to the row's current
    ``frozenset``, filled on a row's first read and replaced by
    :meth:`insert` and :meth:`remove`, which copy no array. The arrays
    are then a base that the rows written since they were built
    override; every method that reads them (:meth:`neighbors`,
    :meth:`iter_edges`, :meth:`source_vertices`, :meth:`decompress`,
    :meth:`compressed_arrays`, :meth:`nbytes`,
    :attr:`compressed_index_length`, and building an admissible set)
    first folds those rows into fresh arrays, so what it returns is
    exact.

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
        "num_entries",
        "_row_sets",
        "_changed",
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
        self.full_offsets: np.ndarray | None = None
        self._set_arrays(rows, row_counts, cols)
        #: Length of ``I_C`` — the paper's cluster size — kept by the
        #: updates, so it reads no array.
        self.num_entries = int(cols.shape[0])
        self._row_sets: dict[int, frozenset[int]] = {}
        # Rows written since the arrays were built: their sets override
        # the arrays until the next fold.
        self._changed: set[int] = set()
        self._at_least: dict[int, set[int]] = {}

    def _set_arrays(
        self, rows: np.ndarray, row_counts: np.ndarray, cols: np.ndarray
    ) -> None:
        self.rows = rows
        self.row_counts = row_counts
        self.cols = cols
        # Offsets into cols per *stored* row; len(rows)+1.
        self._offsets = np.concatenate(([0], np.cumsum(row_counts))).astype(
            np.int64
        )
        if self.full_offsets is not None:
            self.full_offsets = self._standard_index()

    def _fold(self) -> None:
        """Rebuild the arrays from the rows no update touched and the
        current sets of those it did: O(entries), and nothing when no
        row changed since the last build."""
        if not self._changed:
            return
        changed = sorted(self._changed)
        self._changed.clear()
        sets = [sorted(self._row_sets[v]) for v in changed]
        kept = np.repeat(
            ~np.isin(self.rows, np.asarray(changed, dtype=np.int64)),
            self.row_counts,
        )
        src = np.concatenate((
            np.repeat(self.rows, self.row_counts)[kept],
            np.repeat(
                np.asarray(changed, dtype=np.int64),
                np.asarray([len(row) for row in sets], dtype=np.int64),
            ),
        ))
        cols = np.concatenate((
            self.cols[kept],
            np.fromiter(chain.from_iterable(sets), dtype=np.int64),
        ))
        # Each row's entries come from one sorted run, base or changed,
        # so a stable sort on the row id keeps every run sorted.
        order = np.argsort(src, kind="stable")
        rows, row_counts = np.unique(src[order], return_counts=True)
        self._set_arrays(rows, row_counts, cols[order])

    # ------------------------------------------------------------------
    @property
    def is_decompressed(self) -> bool:
        return self.full_offsets is not None

    @property
    def compressed_index_length(self) -> int:
        """Integers in the compressed ``I_R`` (value + repeat count)."""
        self._fold()
        return 2 * int(self.rows.shape[0])

    def standard_index_length(self) -> int:
        """Integers a standard (uncompressed) ``I_R`` would need."""
        return self.num_vertices + 1

    def nbytes(self) -> int:
        """Approximate resident bytes of the stored arrays."""
        self._fold()
        total = self.rows.nbytes + self.row_counts.nbytes + self.cols.nbytes
        total += self._offsets.nbytes
        if self.full_offsets is not None:
            total += self.full_offsets.nbytes
        return total

    def compressed_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The current ``(rows, row_counts, cols)``: what the store
        format saves."""
        self._fold()
        return self.rows, self.row_counts, self.cols

    # ------------------------------------------------------------------
    def _standard_index(self) -> np.ndarray:
        full = np.zeros(self.num_vertices + 1, dtype=np.int64)
        if self.rows.shape[0]:
            full[self.rows + 1] = self.row_counts
            np.cumsum(full, out=full)
        return full

    def decompress(self) -> None:
        """Materialize the standard ``I_R`` for O(1) neighbor access."""
        self._fold()
        if self.full_offsets is None:
            self.full_offsets = self._standard_index()

    def resize(self, num_vertices: int) -> None:
        """Grow the vertex count to ``num_vertices``. The standard ``I_R``
        is |V|+1 long, so it is dropped until the next :meth:`decompress`."""
        self.num_vertices = num_vertices
        self.full_offsets = None

    def _array_row(self, v: int) -> np.ndarray:
        """``v``'s slice of the arrays as built (empty if none).

        O(1) when decompressed; a binary search over stored rows otherwise.
        """
        if self.full_offsets is not None:
            start, stop = self.full_offsets[v], self.full_offsets[v + 1]
            return self.cols[start:stop]
        idx = np.searchsorted(self.rows, v)
        if idx == self.rows.shape[0] or self.rows[idx] != v:
            return _EMPTY
        return self.cols[self._offsets[idx] : self._offsets[idx + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        """The sorted neighbor array of ``v`` (empty if none)."""
        self._fold()
        return self._array_row(v)

    def row(self, v: int) -> frozenset[int]:
        """``v``'s entries as a set (the candidate kernel's operand), built
        from the arrays on the row's first read and kept until an update
        replaces it. The set is shared; callers must not mutate it."""
        row = self._row_sets.get(v)
        if row is None:
            # A row without a set was not written since the arrays were
            # built, so its slice there is current.
            row = self._row_sets[v] = frozenset(self._array_row(v).tolist())
        return row

    def insert(self, src: int, dst: int) -> None:
        """Add the absent entry ``src -> dst`` to its row's set (a new
        row joins ``rows_at_least(1)``)."""
        row = self._row_sets[src] = self.row(src) | {dst}
        self._changed.add(src)
        self.num_entries += 1
        admitted = self._at_least.get(len(row))
        if admitted is not None:
            admitted.add(src)

    def remove(self, src: int, dst: int) -> None:
        """Take the present entry ``src -> dst`` out of its row's set; a
        row it empties leaves ``rows_at_least(1)``."""
        row = self.row(src)
        admitted = self._at_least.get(len(row))
        if admitted is not None:
            admitted.discard(src)
        self._row_sets[src] = row - {dst}
        self._changed.add(src)
        self.num_entries -= 1

    def rows_at_least(self, k: int) -> set[int]:
        """The rows holding at least ``k`` entries, built on first use and
        kept live by :meth:`insert` and :meth:`remove`: the matcher's
        admissible set for a pattern vertex with ``k`` edges in this CSR,
        and for ``k == 1`` its static candidate pool (every row). The set
        is shared; callers must not mutate it."""
        admitted = self._at_least.get(k)
        if admitted is None:
            self._fold()
            admitted = self._at_least[k] = set(
                self.rows[self.row_counts >= k].tolist()
            )
        return admitted

    def built_rows_at_least(self, k: int) -> set[int] | None:
        """The set :meth:`rows_at_least` built for ``k``, or None: a
        lookup that never builds one (so never adds one to patch)."""
        return self._at_least.get(k)

    def degree(self, v: int) -> int:
        return len(self.row(v))

    def contains(self, src: int, dst: int) -> bool:
        """Membership test for the entry ``src -> dst``."""
        return dst in self.row(src)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield every (src, dst) entry stored in this CSR."""
        self._fold()
        for i, r in enumerate(self.rows):
            for c in self.cols[self._offsets[i] : self._offsets[i + 1]]:
                yield int(r), int(c)

    def source_vertices(self) -> np.ndarray:
        """Sorted distinct vertices with at least one outgoing entry."""
        self._fold()
        return self.rows


class Cluster:
    """One cluster of mutually isomorphic edges.

    Directed clusters keep two CSRs — outgoing (``src``'s out-neighbors) and
    incoming (``dst``'s in-neighbors) — so both traversal directions are
    constant-time. An undirected cluster needs only one CSR because each
    undirected edge is stored in both orientations inside it.

    The matcher reads rows as ``frozenset`` views (:meth:`successor_set`,
    :meth:`predecessor_set`), which are the CSRs' row sets
    (:meth:`CompressedCSR.row`). An update patches the cluster in place
    (:meth:`insert`, :meth:`remove`): it replaces the sets of the two rows
    it touches, so the object, every other row view, and the admissible
    sets (:meth:`rows_at_least`), which the patch keeps live, outlive it.
    """

    __slots__ = ("key", "out_csr", "in_csr", "_out_sets", "_in_sets", "__weakref__")

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
        # The CSRs' row dicts, read here directly so that a row view
        # already built costs one dict lookup. An undirected cluster has
        # one CSR, so one dict.
        self._out_sets = out_csr._row_sets
        self._in_sets = self._csr(False)._row_sets

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

    def resize(self, num_vertices: int) -> None:
        """Grow both CSRs to ``num_vertices`` (:meth:`CompressedCSR.resize`)."""
        self.out_csr.resize(num_vertices)
        if self.in_csr is not None:
            self.in_csr.resize(num_vertices)

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
        return self._csr(False).neighbors(v)

    def successor_set(self, v: int) -> frozenset[int]:
        """:meth:`successors` as a set (the candidate kernel's operand)."""
        row = self._out_sets.get(v)
        if row is None:
            row = self.out_csr.row(v)
        return row

    def predecessor_set(self, v: int) -> frozenset[int]:
        """:meth:`predecessors` as a set, read like :meth:`successor_set`."""
        row = self._in_sets.get(v)
        if row is None:
            row = self._csr(False).row(v)
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
        """Patch one absent edge in: both CSR entries, each replacing one
        row set and keeping its admissible sets, static pools included,
        live."""
        self.out_csr.insert(src, dst)
        self._csr(False).insert(dst, src)

    def remove(self, src: int, dst: int) -> None:
        """Patch one present edge out; the mirror of :meth:`insert`."""
        self.out_csr.remove(src, dst)
        self._csr(False).remove(dst, src)

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
        return self._csr(False).source_vertices()

    def iter_directed_entries(self) -> Iterator[tuple[int, int]]:
        """Yield each stored (src, dst) orientation once."""
        return self.out_csr.iter_edges()

    def __repr__(self) -> str:
        return f"<Cluster {self.key} entries={self.num_entries}>"
