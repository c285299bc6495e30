"""Exact-arithmetic toolkit for probabilistic pushdown processes.

Stateless probabilistic pushdown processes and the Markov chains they
induce over configurations, with exact rational probabilities; PCTL with
sound three-valued bounded evaluation on those chains; and a compiler that
turns word-matching (PCP) instances into pushdown models whose formula
probabilities certify solutions.
"""
from .chain import (
    Budget,
    ChainGenerator,
    ExploreResult,
    FinitePath,
    InvalidPathError,
    explore,
    path_probability,
)
from .pctl import (
    And,
    Atom,
    BoundPlaceholder,
    Comparison,
    Evaluator,
    Next,
    Not,
    Prob,
    ProbInterval,
    ThreeValued,
    TrueFormula,
    Until,
    compare,
    parse_formula,
    serialize_formula,
)
from .pushdown import (
    Bpa,
    BpaRule,
    Configuration,
    induced_chain,
    parse_model,
    serialize_model,
    step,
    validate_model,
)
from .reduction import (
    CertifyReport,
    PaddedInstance,
    PcpInstance,
    ReductionArtifact,
    Variant,
    VariantKind,
    certify,
    check_solution,
    compile_instance,
    erase_pad,
    guess_config,
    guess_path,
    guess_path_probability,
    instantiate_top_formula,
    pad,
    rho,
    rho_bar,
    theta,
    theta_bar,
)
from .oracle import (
    brute_force_pcp,
    enumerate_until_probability,
    search_via_reduction,
)

__version__ = "0.1.0"
