"""The public surface of slhnet and its module edges, pinned.

Adding a public name or letting ``network`` depend on ``transfer`` has to be
a visible change to this file.
"""

import ast
import inspect

import slhnet
import slhnet.network

PUBLIC = [
    "BeamSplitter", "CommutingForm", "ConsistencyResiduals", "Edge", "ExternalPort",
    "FreqPoint", "LinearComponent", "NetDocument", "ParseError", "PartitionedComponent",
    "SIGMA_MIN", "StratonovichModel", "TransferEvaluation", "ValidationIssue",
    "ValidationReport", "__version__", "beamsplitter_loop", "beamsplitter_network",
    "build_partitioned", "check_unitary_on_axis", "commuting_form", "concatenate",
    "drift", "eval_transfer", "feedback_reduce", "freq_response", "ito_table_residuals",
    "ito_to_strat", "make_cavity", "mixing_splitter", "mobius", "parse",
    "poles_zeros_commuting", "redheffer_star", "serialize", "series_product",
    "strat_to_ito", "validate",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 38
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
