"""celab: an exact-arithmetic laboratory for computably-enumerable-real
approximations — monotone rational streams, difference arithmetic,
domination witnesses, two stage-based priority engines, and a toy
prefix-free machine with a dovetailed halting-probability enumeration."""

from .rationals import Rational, format_rational, parse_rational, pow2_neg
from .streams import (
    AdversarySuite,
    ApproxStream,
    Direction,
    MonotonicityViolation,
    OutOfUnitInterval,
    StreamError,
    SuiteEntry,
    make_constant_target,
    make_tracker,
)
from .dce import DcReal, dc_add, dc_mul, dc_neg, dc_sub, dc_zero
from .solovay import (
    SolovayWitness,
    check_clause_a,
    check_clause_b_horizon,
    check_clause_c,
    speedup,
)
from .expansion import ExpansionConfig, ExpansionEngine, run_expansion, verify_expansion
from .injury import InjuryConfig, InjuryEngine, run_injury, verify_injury
from .omega import (
    OmegaEnumeration,
    ToyMachine,
    SubMachine,
    bundled_machines,
    omega_stream,
    parse_machine,
    translate_omega,
)

__version__ = "0.1.0"
