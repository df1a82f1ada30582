"""quatrange: numerical ranges of quaternionic matrices and model operators.

The library computes the numerical range W(T) = {<Tx, x> : ||x|| = 1} of
finite quaternionic matrices in bild coordinates (Re q, |Im q|), the
essential bild of block-plus-diagonal model operators, the matrix
S-spectrum, and the closure decomposition of the bild via the inter-convex
hull with the essential bild.
"""

from .eigen import NumericalError, SymSpectrum, jacobi_eig, sym_eig
from .essential import (
    CombinationResult,
    ConstantTail,
    DecayingPeriodicTail,
    ExplicitTail,
    LimitSegment,
    MissingSequenceError,
    ModelOperator,
    PeriodicTail,
    QuasiOrthExhausted,
    QuasiOrthSelection,
    RationalsITail,
    SparseVec,
    TailBasisSequence,
    ValidationError,
    convex_combination_sequence,
    essential_bild,
    quasi_orth_select,
    remark_operator,
    truncate,
    we_membership,
)
from .geometry import convex_hull, halfplane_intersection, hausdorff_convex
from .lancaster import (
    IconvRegion,
    LancasterReport,
    ProbeReport,
    iconv,
    iconv_polygon,
    lancaster_check,
    nonclosedness_probe,
)
from .numrange import (
    BildRegion,
    RealSection,
    RealSectionError,
    bild_points,
    diagonal_bild,
    nr_sample,
    real_section,
    refined_values,
    support_offsets,
    upper_bild,
    upper_bild_support,
)
from .qmatrix import QMatrix, delta
from .quaternion import (
    Quaternion,
    QVector,
    SimilaritySphere,
    csim,
    polarization,
)
from .spectra import SphereSet, s_spectrum

__version__ = "0.1.0"

__all__ = [
    "BildRegion",
    "CombinationResult",
    "ConstantTail",
    "DecayingPeriodicTail",
    "ExplicitTail",
    "IconvRegion",
    "LancasterReport",
    "LimitSegment",
    "MissingSequenceError",
    "ModelOperator",
    "NumericalError",
    "PeriodicTail",
    "ProbeReport",
    "QMatrix",
    "QVector",
    "Quaternion",
    "QuasiOrthExhausted",
    "QuasiOrthSelection",
    "RationalsITail",
    "RealSection",
    "RealSectionError",
    "SimilaritySphere",
    "SparseVec",
    "SphereSet",
    "SymSpectrum",
    "TailBasisSequence",
    "ValidationError",
    "bild_points",
    "convex_combination_sequence",
    "convex_hull",
    "csim",
    "delta",
    "diagonal_bild",
    "essential_bild",
    "halfplane_intersection",
    "hausdorff_convex",
    "iconv",
    "iconv_polygon",
    "jacobi_eig",
    "lancaster_check",
    "nonclosedness_probe",
    "nr_sample",
    "polarization",
    "quasi_orth_select",
    "real_section",
    "refined_values",
    "remark_operator",
    "s_spectrum",
    "support_offsets",
    "sym_eig",
    "truncate",
    "upper_bild",
    "upper_bild_support",
    "we_membership",
]
