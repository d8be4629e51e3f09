"""Word reversing and bounded cancellativity certificates for positive
monoid presentations, including families indexed over the integers."""

from .words import (
    EPSILON,
    Alphabet,
    Generator,
    Letter,
    UnknownGeneratorError,
    Word,
    WordSyntaxError,
    format_word,
    free_reduce,
    parse_word,
    shift_word,
)
from .presentation import (
    EQUAL,
    AmbiguousComplementError,
    ComplementPair,
    Param,
    PatternLetter,
    Presentation,
    RelationInstance,
    Schema,
    SchemaError,
    check_complemented,
    fixed_schema,
    instances_for_pair,
    instantiate_window,
    left_complement,
    load_presentation,
    materialize_relations,
    right_complement,
    save_presentation,
)
from .reversing import (
    DEFAULT_FUEL,
    Cycles,
    Diverged,
    Empty,
    ReversalStep,
    ReversalTrace,
    ReversingGrid,
    Stuck,
    Terminal,
    build_grid,
    grid_to_dot,
    left_reverse,
    reverse_quotient,
    right_reverse,
)
from .completeness import (
    Certificate,
    CubeResult,
    SweepCapError,
    certify,
    cube_condition,
    enumerate_word_triples,
)
from .derivation import (
    CancelStep,
    DerivationError,
    DerivationScript,
    InsertStep,
    RelationStep,
    ScriptResult,
    apply_step,
    format_script,
    parse_script,
    shift_script,
    substitute_t,
    t_expression,
    verify_script,
    verify_translation_product,
)
from .oracle import (
    OracleCapError,
    ScanReport,
    ScanWitness,
    cancellation_scan,
    equivalence_class,
    monoid_equal,
)
from . import catalog

__version__ = "0.1.0"
