"""E11 — index-storage comparison across sparse formats (table).

Compares the index memory of the formats in play: plain COO, CSF-per-mode
(SPLATT's working set), the memoized engine's symbolic tree (balanced
binary), and HiCOO blocked storage — the storage side of the design space
this research line (SPLATT / AdaTM / HiCOO) explores.  All numbers are exact
byte counts of the structures as built.
"""

from __future__ import annotations

from ..core.strategy import balanced_binary
from ..core.symbolic import SymbolicTree
from ..formats.csf import CsfTensor, default_mode_order
from ..formats.hicoo import HicooTensor
from ..synth.datasets import dataset_names
from .common import DEFAULT_SCALE, ExperimentResult, load_scaled

EXP_ID = "E11"
TITLE = "Index storage (MB): COO vs CSF-per-mode vs memo tree vs HiCOO"


def run(scale: float = DEFAULT_SCALE, names=None,
        block_size: int = 128) -> ExperimentResult:
    names = list(names) if names is not None else dataset_names(
        analogs_only=True
    )
    rows = []
    tree_ratio = {}
    hicoo_ratio = {}
    for name in names:
        tensor = load_scaled(name, scale)
        coo_bytes = tensor.idx.nbytes
        csf_bytes = sum(
            CsfTensor(tensor, default_mode_order(m, tensor.ndim)).nbytes()
            - tensor.nnz * 8  # exclude values: index comparison only
            for m in range(tensor.ndim)
        )
        from ..baselines.splatt_one import storage_mode_order

        csf1_bytes = CsfTensor(
            tensor, storage_mode_order(tensor)
        ).nbytes() - tensor.nnz * 8
        sym = SymbolicTree(tensor, balanced_binary(tensor.ndim))
        # exclude the root values kept in gather order: index comparison only
        tree_bytes = sym.index_nbytes() - sum(
            sym.root_value_nbytes(node.node_id) for node in sym.nodes)
        hicoo = HicooTensor(tensor, block_size=block_size)
        hicoo_bytes = hicoo.index_nbytes()
        tree_ratio[name] = tree_bytes / coo_bytes
        hicoo_ratio[name] = hicoo_bytes / coo_bytes
        rows.append([
            name,
            tensor.ndim,
            round(coo_bytes / 1e6, 3),
            round(csf_bytes / 1e6, 3),
            round(csf1_bytes / 1e6, 3),
            round(tree_bytes / 1e6, 3),
            round(hicoo_bytes / 1e6, 3),
            round(tree_ratio[name], 2),
            round(hicoo_ratio[name], 2),
        ])
    import math

    # A fixed sanity bound, independent of the model the tree's bytes are
    # checked against: ceil(log N)+3 copies of the COO index.
    max_order = max(row[1] for row in rows) if rows else 3
    bound = math.ceil(math.log2(max_order)) + 3
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["dataset", "order", "coo", "csf x N", "csf x 1", "memo tree",
                 "hicoo", "tree/coo", "hicoo/coo"],
        rows=rows,
        expected_shape=(
            "Memo-tree index storage (the root's int64 coordinates + "
            "kernel index arrays, each in the narrowest dtype its range "
            "fits) stays within ceil(log N)+3 copies of COO: 1.7-2.0 "
            "copies on these analogs at scale 1.0, where int64 kernel "
            "indices took 3.0-3.6; "
            "CSF-per-mode pays ~N copies; HiCOO compresses below COO on "
            "clustered tensors."
        ),
        observations={
            "max_tree_ratio": max(tree_ratio.values()),
            "tree_ratio_by_dataset": tree_ratio,
            "hicoo_ratio_by_dataset": hicoo_ratio,
            "log_bound": bound,
        },
    )
