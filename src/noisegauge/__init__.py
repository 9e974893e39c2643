"""Noise quantification for qubit and one-mode Gaussian channels.

Two complementary functionals gauge how disruptive a channel is:

* the minimal probability of mixing with a state-preparation channel before
  the mixture becomes entanglement breaking (``mu_c``), and
* the minimal number of repeated applications after which the channel itself
  breaks entanglement (``n_c``).

Both come with closed forms for unital and generalized amplitude-damping
qubit channels and for isotropic one-mode Gaussian attenuation and
amplification, plus oracle-grade numeric routes used to validate them.
"""

from .amend import (
    AmendReport,
    FilterCandidate,
    amend_order,
    apply_filter,
    gad_amendable,
    is_amendable2,
    sandwich,
    search_filter,
)
from .channels import (
    Channel,
    GadParams,
    KrausChannel,
    UnitalChannel,
    as_kraus,
    bloch_to_density,
    bloch_vector,
    channel_from_json,
    channel_to_json,
    choi,
    compose_kraus,
    compose_unital,
    density_to_bloch,
    gad_kraus,
    kraus_from_choi,
    pauli_decompose,
    validate_density,
)
from .gad import (
    amend_boundary_s1,
    mu_c_gad,
    mu_c_gad_squared,
    mu_vs_vz,
    n_c_gad,
    p_n,
    pbar,
    pbarbar,
    vbar,
)
from .gaussian import (
    GaussianChannel,
    IsoChannel,
    amplification,
    attenuation,
    compose_gaussian,
    eb_split_feasible,
    is_eb_iso,
    n_c_amplification,
    n_c_attenuation,
    n_c_iso,
    to_triplet,
)
from .linalg import (
    canonical_decompose,
    hermitian_eigenvalues,
    partial_transpose,
    polar_decompose,
    trace_norm,
)
from .measures import (
    MuSearchResult,
    ebn_member,
    mu_c,
    mu_c_search,
    mu_c_unital,
    mu_c_upper_bound,
    mu_given_rho0,
    n_c,
    noise_report,
)
from .report import NcResult, NoiseReport
from .separability import (
    ChoiState,
    choi_state,
    is_eb,
    is_separable,
    min_pt_eigenvalue,
)

__version__ = "0.1.0"
