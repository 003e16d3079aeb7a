"""Run a tiny decomposition the way a job does and check what it imported.

A ``repro decompose`` job imports ``repro.cli``, ``repro.core.cpals``,
``repro.algos.restarts`` and ``repro.io.model``, reads a ``.tns`` file,
fits it and saves the model.  This script does the same on a small
random tensor — ``cp_als(strategy="auto")``, ``cp_als_restarts`` and
``save_model`` — and then fails if any module in :data:`HEAVY` was
loaded: each costs start-up time and memory that no decomposition needs.
The CI step "Decompose-path import guard" and
``test_cli.py::TestDecomposePathImports`` both run it::

    PYTHONPATH=src python tests/decompose_imports.py
"""

from __future__ import annotations

import os
import sys
import tempfile

HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special",
         "scipy._lib._array_api", "numpy.f2py", "numpy.testing",
         "concurrent.futures", "repro.parallel", "repro.synth",
         "repro.baselines", "repro.formats")


def run_decompose_path(workdir: str) -> None:
    import repro.algos.restarts
    import repro.cli
    import repro.core.cpals
    import repro.io.model

    import numpy as np

    from repro.core.coo import CooTensor
    from repro.io.frostt import write_tns

    rng = np.random.default_rng(0)
    shape = (7, 6, 5, 4)
    idx = np.column_stack([rng.integers(0, n, 60) for n in shape])
    tns = os.path.join(workdir, "tiny.tns")
    write_tns(CooTensor(idx, rng.random(60) + 0.5, shape), tns)

    tensor = repro.cli.load_input(tns)
    result = repro.core.cpals.cp_als(tensor, 3, strategy="auto",
                                     n_iter_max=3, random_state=0)
    repro.algos.restarts.cp_als_restarts(tensor, 3, 2, n_iter_max=2,
                                         random_state=0)
    repro.io.model.save_model(result.ktensor,
                              os.path.join(workdir, "model.npz"))


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        run_decompose_path(workdir)
    loaded = [m for m in HEAVY if m in sys.modules]
    if loaded:
        print(f"decompose path imports {' '.join(loaded)}")
        return 1
    print(f"decompose path imports none of {', '.join(HEAVY)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
