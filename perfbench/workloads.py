"""The benchmark's named workloads and the seeded inputs they train on.

Every graph is generated here with numpy/scipy from the run's seed, so a
change to the program's own generators cannot change the inputs; the
program receives only the resulting arrays (a GCN-normalised CSR
adjacency, dense features and integer labels).

All three workloads are closed-loop (one caller), full-batch training
of a 3-layer GCN with at most 2 workers (the sizing host has 2 cores):

* ``ghost-1d-shm`` drives the partition-aware 1D ghost-row exchange over
  the shared-memory transport: sparse ``gather_rows`` exchange, shm
  channel and SpMM, with multilevel partitioning inside set-up.  It never
  touches broadcast or tcp.
* ``ghost-1d-virtual`` is the same graph, seed and algorithm on the
  single-process virtual runtime: the plain single-process baseline of
  the same task, the oracle for ``ghost-1d-shm``, and the workload that
  every ``parallel``-layer change bypasses (its prediction for such a
  change is "no change").
* ``summa-2d-tcp`` is 2D SUMMA on a 2x2 grid over the tcp transport on an
  R-MAT graph with wide features: dense broadcast and GEMM dominate,
  SpMM is light, and there is no partition and no ghost exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str               # "sbm" or "rmat"
    features: int
    hidden: int
    classes: int
    algorithm: str           # "1d" or "2d"
    backend: str             # "virtual" or "process"
    transport: Optional[str] = None
    partition: Optional[str] = None
    variant: Optional[str] = None
    p: int = 4
    workers: int = 2
    layers: int = 3

    @property
    def is_process(self) -> bool:
        return self.backend == "process"

    def algorithm_kwargs(self) -> dict:
        """Keyword arguments for ``repro.dist.make_algorithm``."""
        kw = {"hidden": self.hidden, "layers": self.layers,
              "backend": self.backend}
        if self.variant is not None:
            kw["variant"] = self.variant
        if self.is_process:
            kw["workers"] = self.workers
            kw["transport"] = self.transport
        return kw

    def oracle_kwargs(self) -> dict:
        """The same configuration on the single-process virtual runtime."""
        kw = self.algorithm_kwargs()
        kw["backend"] = "virtual"
        kw.pop("workers", None)
        kw.pop("transport", None)
        return kw


WORKLOADS = {
    w.name: w for w in (
        Workload("ghost-1d-shm", graph="sbm", features=128, hidden=64,
                 classes=16, algorithm="1d", backend="process",
                 transport="shm", partition="multilevel", variant="ghost"),
        Workload("ghost-1d-virtual", graph="sbm", features=128, hidden=64,
                 classes=16, algorithm="1d", backend="virtual",
                 partition="multilevel", variant="ghost"),
        Workload("summa-2d-tcp", graph="rmat", features=256, hidden=256,
                 classes=16, algorithm="2d", backend="process",
                 transport="tcp"),
    )
}

# Shuffled SBM: 16 communities of 512 vertices (n = 8192), labels are the
# communities, so a good partition finds structure a block split cannot.
SBM_BLOCKS = 16
SBM_BLOCK_SIZE = 512
SBM_P_IN = 0.03
SBM_P_OUT = 0.0008

# R-MAT, Graph500 quadrant probabilities: n = 4096, average degree 8.
RMAT_SCALE = 12
RMAT_EDGE_FACTOR = 4
RMAT_ABC = (0.57, 0.19, 0.19)


def _sbm_edges(rng: np.random.Generator):
    size = SBM_BLOCK_SIZE
    starts = np.arange(SBM_BLOCKS + 1) * size
    srcs, dsts = [], []
    for bi in range(SBM_BLOCKS):
        for bj in range(bi, SBM_BLOCKS):
            if bi == bj:
                pairs, prob = size * (size - 1) // 2, SBM_P_IN
            else:
                pairs, prob = size * size, SBM_P_OUT
            m = rng.binomial(pairs, prob)
            srcs.append(rng.integers(starts[bi], starts[bi + 1], size=m))
            dsts.append(rng.integers(starts[bj], starts[bj + 1], size=m))
    n = SBM_BLOCKS * size
    labels = np.repeat(np.arange(SBM_BLOCKS), size)
    # Shuffle vertex ids so the natural order carries no community
    # structure; only the partitioner can recover it.
    perm = rng.permutation(n)
    shuffled = np.empty(n, dtype=np.int64)
    shuffled[perm] = labels
    return n, perm[np.concatenate(srcs)], perm[np.concatenate(dsts)], shuffled


def _rmat_edges(rng: np.random.Generator, classes: int):
    a, b, c = RMAT_ABC
    n = 1 << RMAT_SCALE
    m = RMAT_EDGE_FACTOR * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(RMAT_SCALE):
        r = rng.random(m)
        src = (src << 1) | (r >= a + b)
        dst = (dst << 1) | (((r >= a) & (r < a + b)) | (r >= a + b + c))
    return n, src, dst, rng.integers(0, classes, size=n)


def gcn_adjacency(n: int, src: np.ndarray, dst: np.ndarray):
    """Undirected 0/1 adjacency, then ``D^-1/2 (A + I) D^-1/2``, as the
    three CSR arrays (sorted column indices, int64 / float64)."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    a = sp.coo_matrix(
        (np.ones(2 * src.size), (np.concatenate([src, dst]),
                                 np.concatenate([dst, src]))),
        shape=(n, n)).tocsr()
    a.sum_duplicates()
    a.data[:] = 1.0
    a = (a + sp.identity(n, format="csr")).tocsr()
    scale = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    a = sp.diags(scale) @ a @ sp.diags(scale)
    a = a.tocsr()
    a.sort_indices()
    return (a.indptr.astype(np.int64), a.indices.astype(np.int64),
            a.data.astype(np.float64))


def make_inputs(w: Workload, seed: int):
    """``(indptr, indices, data, n, features, labels)`` for ``seed``."""
    rng = np.random.default_rng([seed, 0 if w.graph == "sbm" else 1])
    if w.graph == "sbm":
        n, src, dst, labels = _sbm_edges(rng)
    else:
        n, src, dst, labels = _rmat_edges(rng, w.classes)
    indptr, indices, data = gcn_adjacency(n, src, dst)
    features = rng.standard_normal((n, w.features))
    return indptr, indices, data, n, features, labels.astype(np.int64)
