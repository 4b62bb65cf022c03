"""coorbit2d: 2D dilation groups, coorbit-equivalence classification, and
numerical continuous wavelet analysis over sampled group charts."""

__version__ = "0.1.0"

from .classify import (
    CanonicalForm,
    EquivalenceVerdict,
    LineSet,
    canonical_diagonal,
    canonical_shearlet,
    canonical_similitude,
    canonicalize,
    component_count,
    coorbit_equivalent,
    in_coorbit_symmetry,
    in_normalizer,
    in_orbit_symmetry,
    lines_to_phi_s,
    orbit_complement,
    rep_group,
    same_group,
    symmetry,
)
from .errors import (
    ChartMismatchError,
    CoorbitError,
    CoverageWarning,
    DegenerateInputError,
    FormatError,
    OrbitSampleError,
    SingularMatrixError,
    WeightRangeError,
)
from .families import bump
from .groups import (
    DiagonalChart,
    Family,
    GroupSpec,
    ShearletChart,
    SimilitudeChart,
    conjugate_spec,
    diagonal,
    element_from_chart,
    g_weight,
    haar_weight,
    rotation,
    shear,
    shearlet,
    similitude,
)
from .io_formats import (
    emit_report,
    group_spec_from_dict,
    group_spec_to_dict,
    make_report,
    parse_group_spec,
    parse_report,
    read_signal,
    write_group_spec,
    write_signal,
)
from .sampling import GroupSampling, default_sampling
from .signals import (
    GridSignal,
    TestSignal,
    freq_bump,
    freq_grids,
    gen_test_signal,
    signal_from_spectrum,
    spectrum_from_signal,
    wave_packet,
)
from .transform import (
    CalderonResult,
    RatioTable,
    WaveletSpec,
    calderon_constant,
    calderon_multiplier,
    default_wavelet,
    norm_ratio_profile,
    reconstruct,
    signal_coorbit_norm,
)
