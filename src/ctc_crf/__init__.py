"""Sequence-CRF training with a blank-collapsing state topology.

The pieces: a WFST layer (topology, composition, graph assembly), a backoff
n-gram LM with ARPA round-trip, the CRF objective with exact gradients (one
rescaled forward-backward serves the numerator and the denominator), a
small trainable acoustic model, and a Viterbi beam decoder with blank-frame
skipping.
"""

from .decoder import (BeamConfig, DecodeResult, ErrorRateBreakdown,
                      beam_decode, evaluate_error_rate, greedy_decode)
from .errors import DataError, NumericalError
from .lm import (NGramModel, emit_arpa, estimate, lm_to_fst, read_arpa,
                 score_sequence)
from .loss import (DenominatorTable, LossResult, crf_loss,
                   denominator_forward, flatten_denominator,
                   numerator_forward)
from .model import AcousticModel, Adam, LayerSpec, Sgd
from .semiring import LOG, ONE, TROPICAL, ZERO
from .symbols import Alphabet, SymbolTable
from .training import EpochMetrics, TrainConfig, train
from .wfst import (Arc, Wfst, build_ctc_topology, build_decoding_graph,
                   build_denominator_graph, build_lexicon_fst, compose,
                   map_b, read_fst_text, trim, write_fst_text)

__all__ = [
    "Alphabet", "Arc", "AcousticModel", "Adam", "BeamConfig",
    "DataError", "DecodeResult", "DenominatorTable", "EpochMetrics",
    "ErrorRateBreakdown", "LOG", "LayerSpec", "LossResult", "NGramModel",
    "NumericalError", "ONE", "Sgd", "SymbolTable",
    "TROPICAL", "TrainConfig", "Wfst", "ZERO", "beam_decode",
    "build_ctc_topology", "build_decoding_graph", "build_denominator_graph",
    "build_lexicon_fst", "compose", "crf_loss", "denominator_forward",
    "emit_arpa", "estimate", "evaluate_error_rate", "flatten_denominator",
    "greedy_decode", "lm_to_fst", "map_b", "numerator_forward", "read_arpa",
    "read_fst_text", "score_sequence", "train", "trim", "write_fst_text",
]
