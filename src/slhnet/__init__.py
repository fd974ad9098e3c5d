"""Linear quantum feedback networks.

Components are (S, C, Omega) matrix triples; this package evaluates their
transfer matrix functions, composes them in series, feedback, beam-splitter
and Redheffer-star arrangements, converts between Stratonovich and Ito
parameterizations, and reads/writes the QNET text format.
"""

from .slh import (LinearComponent, ValidationIssue, ValidationReport, concatenate,
                  drift, make_cavity, validate)
from .transfer import (CommutingForm, SIGMA_MIN, TransferEvaluation, check_unitary_on_axis,
                       commuting_form, eval_transfer, freq_response, poles_zeros_commuting)
from .network import (BeamSplitter, PartitionedComponent, beamsplitter_loop,
                      beamsplitter_network, feedback_reduce, mixing_splitter,
                      mobius, redheffer_star, series_product)
from .stratcal import (ConsistencyResiduals, StratonovichModel, ito_table_residuals,
                       ito_to_strat, strat_to_ito)
from .netfile import (Edge, ExternalPort, NetDocument, ParseError,
                      build_partitioned, parse, serialize)

__version__ = "0.1.0"

__all__ = [
    "LinearComponent", "ValidationIssue", "ValidationReport",
    "concatenate", "drift", "make_cavity", "validate",
    "CommutingForm", "SIGMA_MIN", "TransferEvaluation",
    "check_unitary_on_axis", "commuting_form", "eval_transfer",
    "freq_response", "poles_zeros_commuting",
    "BeamSplitter", "PartitionedComponent", "beamsplitter_loop",
    "beamsplitter_network", "feedback_reduce", "mixing_splitter", "mobius",
    "redheffer_star", "series_product",
    "ConsistencyResiduals", "StratonovichModel",
    "ito_table_residuals", "ito_to_strat", "strat_to_ito",
    "Edge", "ExternalPort", "NetDocument", "ParseError",
    "build_partitioned", "parse", "serialize",
    "__version__",
]
