"""A^3 approximate attention accelerator (paper Section III-C)."""

from repro._lazy import lazy_exports

_LAZY = {
    "A3Core": "repro.kernels.attention.a3",
    "a3_config": "repro.kernels.attention.a3",
    "BERT_DIM": "repro.kernels.attention.reference",
    "BERT_KEYS": "repro.kernels.attention.reference",
    "attention_a3_fixed": "repro.kernels.attention.reference",
    "attention_error": "repro.kernels.attention.reference",
    "attention_float": "repro.kernels.attention.reference",
    "scale_log2e_q": "repro.kernels.attention.reference",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
