"""Word reversing and bounded cancellativity certificates for positive
monoid presentations, including families indexed over the integers.

Modules load on first use.  `import monorev` runs no submodule: each public
name below resolves the first time it is read (PEP 562), by importing the
module that defines it, so `monorev.certify` loads `completeness` and what
that imports, and nothing else.  The command line keeps the same rule: a
command imports what it runs (see `monorev.cli`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "words": (
        "EPSILON", "Alphabet", "Generator", "Letter", "UnknownGeneratorError", "Word",
        "WordSyntaxError", "free_reduce", "parse_word", "shift_word",
    ),
    "presentation": (
        "DEFAULT_FUEL", "AmbiguousComplementError", "CapError", "ComplementPair", "Param",
        "PatternLetter", "Presentation", "RelationInstance", "Schema", "SchemaError",
        "check_complemented", "instances_for_pair", "instantiate_window",
        "left_complement", "load_presentation", "materialize_relations",
        "right_complement", "save_presentation",
    ),
    "reversing": (
        "Cycles", "Diverged", "Empty", "ReversalStep", "ReversalTrace", "Stuck", "Terminal",
        "left_reverse", "reverse_quotient", "right_reverse",
    ),
    "grid": ("ReversingGrid", "build_grid", "grid_to_dot"),
    "completeness": (
        "Certificate", "CubeResult", "SweepCapError", "certify", "cube_condition",
        "cube_traces", "enumerate_word_triples",
    ),
    "derivation": (
        "CancelStep", "DerivationError", "DerivationScript", "InsertStep", "RelationStep",
        "ScriptResult", "apply_step", "format_script", "parse_script", "shift_script",
        "substitute_t", "t_expression", "verify_script", "verify_translation_product",
    ),
    "oracle": (
        "OracleCapError", "ScanReport", "ScanWitness", "cancellation_scan",
        "equivalence_class", "monoid_equal",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"catalog"}

__all__ = [*_HOME, "catalog"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
