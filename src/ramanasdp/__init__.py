"""Exact duals, alternative systems, and rank-revealing reformulations
for semidefinite programs, with certificate verification."""

__version__ = "0.1.0"

from .symmat import (  # noqa: F401
    EPS_PSD,
    ORTH_TOL,
    RECON_TOL,
    NonOrthonormalError,
    NotPsdInputError,
    PsdClass,
    PsdTag,
    SpectralDecomp,
    SymMat,
    TangentResult,
    TangentWitness,
    classify_psd,
    eig,
    psd_plus_tan_contains,
    rotate,
    split_psd_plus_tan,
    tan_contains,
    tangent_witness,
)
from .model import (  # noqa: F401
    DependentConstraintsError,
    DimensionMismatchError,
    InconsistentRhsError,
    InfeasibleInputError,
    Reformulation,
    SdpInstance,
    SingularMError,
    apply_a,
    apply_at,
    classical_dual_instance,
    dual_slack,
    instances_close,
    reformulate,
    weak_duality_gap,
)
from .facial import (  # noqa: F401
    AltCertificateRaw,
    AltResult,
    FrsValidation,
    NumericalRankAmbiguityError,
    RrForm,
    SubsolverFailureError,
    build_rr_form,
    is_rr_form,
    primal_optimal_value,
    solve_alternative,
    validate_frs,
)
from .subsolver import IterationLimitError  # noqa: F401
from .builders import (  # noqa: F401
    Assignment,
    PsdBlock,
    StandardFormSdp,
    VarSlot,
    build_alt_ram,
    build_dram,
    build_dstrong,
    build_pram,
    build_pstrong,
    dram_size,
    embed_certificate,
    embed_strong_point,
    pstrong_spec_from_slack,
    strong_spec_from_rr,
)
from .verify import (  # noqa: F401
    InductionBreakError,
    LadderRung,
    NormalizationReport,
    RamanaCertificate,
    ShapeMismatchError,
    StrongDualSpec,
    VerifyOutcome,
    alt_ram_from_rr,
    lift_from_strong,
    normalize_ladder,
    pad_ladder,
    verify_alt_ram,
    verify_certificate,
    verify_dram,
    verify_pram,
    verify_strong,
)
from .sdpa import (  # noqa: F401
    ParseError,
    UnsupportedBlockStructureError,
    read_sdpa,
    write_sdpa,
)
from .certfile import (  # noqa: F401
    CertificateFile,
    CertificateFormatError,
    InstanceHashMismatchError,
    instance_digest,
    number_digest,
    read_certificate,
    write_certificate,
)
