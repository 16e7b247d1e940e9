"""Exact verification toolkit for weighted Rogers-Ramanujan refinements."""

from .series import (
    MONO_ONE,
    MONO_T,
    MONO_V,
    MONO_W,
    MONO_X,
    EqualityReport,
    FactorError,
    RationalTerm,
    SubstitutionError,
    WeightPolynomial,
    pack_monomial,
    parse_monomial,
    qpoly_str,
    rational_term,
    unpack_monomial,
)
from .partitions import (
    DIFF2,
    DIFF2_STAR,
    MOD5_14,
    MOD5_23,
    ClassMembershipError,
    Partition,
    PartitionClass,
    col,
    col_star,
    enumerate_class,
    signature,
)
from .identities import (
    IdentitySpec,
    ParameterError,
    ProductSide,
    TailFamily,
    UnknownIdentityError,
    VerificationReport,
    catalog,
    get_entry,
    verify,
    verify_all,
)

__version__ = "0.1.0"
