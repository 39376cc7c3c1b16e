"""Matrix encryption over linear recurrent sequences.

Coding matrices are built from order-k integer recurrences; ciphertext
row ratios obey exact two-sided checking relations that drive error
detection and spiral-search correction.  See the cli module for the
command-line surface and formats for the file grammars.
"""

from .cipher import CorruptionError, decrypt, digitize, encrypt
from .coding import (CodingKey, CodingMatrix, KeyContext, MatrixBuilder, coding_matrix,
                     coding_matrix_inverse, general_key, initial_matrix, is_cyclic,
                     key_fingerprint, left_companion, right_companion, right_form_key,
                     symmetric_key, validate_key)
from .guard import (CheckingRange, checking_range, column_ratio_bounds, correct,
                    detect_errors, range_length, smallest_unambiguous_n)
from .keygen import GenConfig, abt_family, primitive_growth, right_form_keygen, sieve_companion
from .recurrence import Recurrence, extend_backward, extend_forward, standard_sequence
from .spectral import (SpectralReport, all_roots, analyze_matrix, analyze_recurrence,
                       is_pisot, is_primitive, is_strong_perron_frobenius,
                       second_eigenmodulus, transition_ratio)

__version__ = "0.1.0"

__all__ = [
    "CheckingRange", "CodingKey", "CodingMatrix", "CorruptionError", "GenConfig",
    "KeyContext", "MatrixBuilder", "Recurrence", "SpectralReport", "abt_family", "all_roots",
    "analyze_matrix", "analyze_recurrence", "checking_range", "coding_matrix",
    "coding_matrix_inverse", "column_ratio_bounds", "correct", "decrypt",
    "detect_errors", "digitize", "encrypt", "extend_backward", "extend_forward",
    "general_key", "initial_matrix", "is_cyclic", "is_pisot", "is_primitive",
    "is_strong_perron_frobenius", "key_fingerprint", "left_companion",
    "primitive_growth", "range_length", "right_companion", "right_form_key",
    "right_form_keygen", "second_eigenmodulus", "sieve_companion",
    "smallest_unambiguous_n", "standard_sequence", "symmetric_key",
    "transition_ratio", "validate_key",
]
