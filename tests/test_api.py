"""The public surface of slhnet and its module edges, pinned.

Adding a public name or letting ``network`` depend on ``transfer`` has to be
a visible change to this file.
"""

import ast
import inspect
import os
import subprocess
import sys
import textwrap

import slhnet
import slhnet.network

PUBLIC = [
    "BeamSplitter", "CommutingForm", "ConsistencyResiduals", "Edge", "ExternalPort",
    "LinearComponent", "NetDocument", "ParseError", "PartitionedComponent",
    "SIGMA_MIN", "StratonovichModel", "TransferEvaluation", "ValidationIssue",
    "ValidationReport", "__version__", "beamsplitter_loop", "beamsplitter_network",
    "build_partitioned", "check_unitary_on_axis", "commuting_form", "concatenate",
    "drift", "eval_transfer", "feedback_reduce", "freq_response", "ito_table_residuals",
    "ito_to_strat", "make_cavity", "mixing_splitter", "mobius", "parse",
    "poles_zeros_commuting", "redheffer_star", "serialize", "series_product",
    "strat_to_ito", "validate",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 37
    assert sorted(slhnet.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(slhnet, name) is not None, name


def _imported_modules(module) -> set[str]:
    """Absolute names of the modules that ``module``'s source imports from."""
    package = module.__name__.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"{package}.{base}" if base else package
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_network_does_not_import_transfer():
    assert "slhnet.transfer" not in _imported_modules(slhnet.network)
    assert not any(getattr(value, "__module__", None) == "slhnet.transfer"
                   for value in vars(slhnet.network).values())


def test_small_jobs_load_no_sparse_solver_and_build_no_formatter_tables():
    # SciPy's SuperLU and sparsetools files are loaded by large feedback
    # reductions only, scipy.sparse by none, and
    # the canonical-number tables are built by the first array formatted
    src = os.path.dirname(os.path.dirname(slhnet.__file__))
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import slhnet
        from slhnet import (beamsplitter_loop, commuting_form, concatenate, eval_transfer,
                            ito_to_strat, make_cavity, mixing_splitter, mobius,
                            redheffer_star, series_product, strat_to_ito)
        cav, pair = make_cavity(1.0), concatenate(make_cavity(1.0, phi=0.5), make_cavity(2.0))
        series_product(cav, make_cavity(2.0, 0.5))
        redheffer_star(pair, pair, 1)
        beamsplitter_loop(mixing_splitter(0.5), cav)
        mobius(mixing_splitter(0.5), [[0.5]])
        eval_transfer(pair, 0.5 + 1j)
        commuting_form(cav)
        strat_to_ito(ito_to_strat(cav))
        assert "scipy.sparse.linalg" not in sys.modules
        assert not {"slhnet._superlu", "slhnet._sparsetools"} & set(sys.modules)
        assert slhnet.netfile._tables.cache_info().currsize == 0
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
