"""Matrix encryption over linear recurrent sequences.

Coding matrices are built from order-k integer recurrences; ciphertext
row ratios obey exact two-sided checking relations that drive error
detection and spiral-search correction.  See the cli module for the
command-line surface and formats for the file grammars.

The public names below are imported from their modules on first use
(PEP 562), so that importing the package, or a command that needs only
some of its modules, loads no others.
"""

from importlib import import_module

_EXPORTS = {
    "cipher": ("CorruptionError", "decrypt", "digitize", "encrypt"),
    "coding": ("CodingKey", "CodingMatrix", "KeyContext", "MatrixBuilder", "coding_matrix",
               "coding_matrix_inverse", "general_key", "initial_matrix", "is_cyclic",
               "key_fingerprint", "left_companion", "right_companion", "right_form_key",
               "symmetric_key", "validate_key"),
    "guard": ("CheckingRange", "checking_range", "column_ratio_bounds", "correct",
              "detect_errors", "range_length", "smallest_unambiguous_n"),
    "keygen": ("GenConfig", "abt_family", "abt_keygen", "primitive_growth", "right_form_keygen",
               "sieve_companion"),
    "recurrence": ("Recurrence", "extend_backward", "extend_forward", "standard_sequence"),
    "spectral": ("SpectralReport", "all_roots", "analyze_matrix", "analyze_recurrence",
                 "is_pisot", "is_primitive", "is_strong_perron_frobenius", "transition_ratio"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value          # bound once, like an eager import
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
