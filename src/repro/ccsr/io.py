"""CCSR store persistence.

The paper's workflow (Fig. 2) builds ``G_C`` offline, once, to serve all
subsequent matching tasks — and since ``G_C`` is equivalent to ``G``, the
original graph is not kept. That story needs an on-disk artifact: this
module saves and loads a :class:`~repro.ccsr.store.CCSRStore` so the
offline clustering cost is paid once per data graph, not once per process.

Format: a single ``.npz`` archive. Arrays hold the compressed CSR data
(rows, counts, cols per cluster and direction); a small JSON header carries
the cluster keys, vertex labels, and graph metadata. Labels survive the
round trip with their types (int vs str) via JSON encoding.
"""

from __future__ import annotations

import io
import json
import logging
import os
from typing import Any, Hashable

import numpy as np

logger = logging.getLogger(__name__)

from repro.ccsr.cluster import Cluster, CompressedCSR
from repro.ccsr.key import ClusterKey
from repro.ccsr.store import CCSRStore
from repro.errors import FormatError

_FORMAT_VERSION = 1


def _encode_label(label: Hashable) -> list:
    """JSON-safe tagged encoding preserving int/str/None label types."""
    if label is None:
        return ["n"]
    if isinstance(label, bool):
        raise FormatError("boolean labels are not supported by the store format")
    if isinstance(label, int):
        return ["i", label]
    if isinstance(label, str):
        return ["s", label]
    raise FormatError(
        f"label {label!r} of type {type(label).__name__} cannot be persisted;"
        " use int or str labels"
    )


def _decode_label(tagged: list) -> Hashable:
    kind = tagged[0]
    if kind == "n":
        return None
    if kind == "i":
        return int(tagged[1])
    if kind == "s":
        return str(tagged[1])
    raise FormatError(f"unknown label tag {kind!r}")


def _csr_arrays(csr: CompressedCSR, prefix: str) -> dict[str, np.ndarray]:
    rows, row_counts, cols = csr.compressed_arrays()
    return {
        f"{prefix}_rows": rows,
        f"{prefix}_counts": row_counts,
        f"{prefix}_cols": cols,
    }


def _csr_from_arrays(
    archive: np.lib.npyio.NpzFile, prefix: str, num_vertices: int
) -> CompressedCSR:
    return CompressedCSR.from_arrays(
        archive[f"{prefix}_rows"].astype(np.int64),
        archive[f"{prefix}_counts"].astype(np.int64),
        archive[f"{prefix}_cols"].astype(np.int64),
        num_vertices,
    )


def save_store(
    store: CCSRStore, path: str | os.PathLike, obs: Any = None
) -> None:
    """Write a store to ``path`` as an ``.npz`` archive.

    ``obs`` (a :class:`repro.obs.Observation`) records a ``ccsr.save``
    span with cluster count and on-disk size.
    """
    from repro.obs import NULL_OBS

    with (obs or NULL_OBS).tracer.span("ccsr.save", path=str(path)) as span:
        _save_store(store, path)
        span.set("clusters", store.num_clusters)
        try:
            span.set("bytes", os.path.getsize(path))
        except OSError:
            pass
    logger.debug("saved store %s (%d clusters) to %s",
                 store.name, store.num_clusters, path)


def _save_store(store: CCSRStore, path: str | os.PathLike) -> None:
    arrays: dict[str, np.ndarray] = {}
    cluster_meta = []
    for index, (key, cluster) in enumerate(sorted(
        store.clusters.items(), key=lambda item: str(item[0])
    )):
        prefix = f"c{index}"
        arrays.update(_csr_arrays(cluster.out_csr, f"{prefix}_out"))
        if cluster.in_csr is not None:
            arrays.update(_csr_arrays(cluster.in_csr, f"{prefix}_in"))
        cluster_meta.append(
            {
                "prefix": prefix,
                "src_label": _encode_label(key.src_label),
                "dst_label": _encode_label(key.dst_label),
                "edge_label": _encode_label(key.edge_label),
                "directed": key.directed,
            }
        )
    header = {
        "format_version": _FORMAT_VERSION,
        "name": store.name,
        "num_vertices": store.num_vertices,
        "num_edges": store.num_edges,
        "vertex_labels": [_encode_label(lbl) for lbl in store.vertex_labels],
        "clusters": cluster_meta,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def load_store(path: str | os.PathLike, obs: Any = None) -> CCSRStore:
    """Load a store previously written by :func:`save_store`.

    ``obs`` (a :class:`repro.obs.Observation`) records a ``ccsr.load``
    span with the archive size and cluster count.
    """
    from repro.obs import NULL_OBS

    with (obs or NULL_OBS).tracer.span("ccsr.load", path=str(path)) as span:
        store = _load_store(path)
        span.set("clusters", store.num_clusters)
        try:
            span.set("bytes", os.path.getsize(path))
        except OSError:
            pass
    logger.debug("loaded store %s (%d clusters) from %s",
                 store.name, store.num_clusters, path)
    return store


def _load_store(path: str | os.PathLike) -> CCSRStore:
    with np.load(path) as archive:
        try:
            header = json.loads(bytes(archive["header"]).decode("utf-8"))
        except KeyError:
            raise FormatError(f"{path}: not a CCSR store archive") from None
        if header.get("format_version") != _FORMAT_VERSION:
            raise FormatError(
                f"{path}: unsupported store format version"
                f" {header.get('format_version')!r}"
            )
        num_vertices = len(header["vertex_labels"])
        clusters: dict[ClusterKey, Cluster] = {}
        for meta in header["clusters"]:
            key = ClusterKey(
                _decode_label(meta["src_label"]),
                _decode_label(meta["dst_label"]),
                _decode_label(meta["edge_label"]),
                bool(meta["directed"]),
            )
            prefix = meta["prefix"]
            clusters[key] = Cluster.from_csrs(
                key,
                _csr_from_arrays(archive, f"{prefix}_out", num_vertices),
                _csr_from_arrays(archive, f"{prefix}_in", num_vertices)
                if key.directed
                else None,
            )
        store = CCSRStore.from_clusters(
            header["name"],
            [_decode_label(tagged) for tagged in header["vertex_labels"]],
            int(header["num_edges"]),
            clusters,
        )
    return store


def store_file_size(store: CCSRStore) -> int:
    """Bytes the store occupies when serialized (without touching disk)."""
    buffer = io.BytesIO()
    arrays: dict[str, np.ndarray] = {}
    for index, cluster in enumerate(store.clusters.values()):
        arrays.update(_csr_arrays(cluster.out_csr, f"c{index}_out"))
        if cluster.in_csr is not None:
            arrays.update(_csr_arrays(cluster.in_csr, f"c{index}_in"))
    np.savez_compressed(buffer, **arrays)
    return buffer.getbuffer().nbytes
