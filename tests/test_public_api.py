"""Pin the public names of the package, so any addition or removal of public
API shows up as a change to this list."""

import inspect

import noisegauge

PUBLIC_API = [
    "AmendReport",
    "Channel",
    "ChoiState",
    "FilterCandidate",
    "GadParams",
    "IsoChannel",
    "KrausChannel",
    "MuSearchResult",
    "NcResult",
    "NoiseReport",
    "UnitalChannel",
    "amend_boundary_s1",
    "amend_order",
    "amplification",
    "apply_filter",
    "as_kraus",
    "attenuation",
    "bloch_to_density",
    "bloch_vector",
    "channel_from_json",
    "channel_to_json",
    "choi",
    "compose_kraus",
    "density_to_bloch",
    "ebn_member",
    "gad_amendable",
    "gad_kraus",
    "is_amendable2",
    "is_eb",
    "is_eb_iso",
    "kraus_from_choi",
    "min_pt_eigenvalue",
    "mu_c",
    "mu_c_gad",
    "mu_c_gad_squared",
    "mu_c_search",
    "mu_c_unital",
    "mu_c_upper_bound",
    "mu_given_rho0",
    "mu_vs_vz",
    "n_c",
    "n_c_amplification",
    "n_c_attenuation",
    "n_c_gad",
    "n_c_iso",
    "noise_report",
    "p_n",
    "partial_transpose",
    "pauli_decompose",
    "pbar",
    "pbarbar",
    "polar_decompose",
    "sandwich",
    "search_filter",
    "trace_norm",
    "validate_density",
    "vbar",
]


def test_public_names_are_pinned():
    # submodules become package attributes once anything imports them, so
    # they are not part of the pinned list
    public = sorted(
        name for name, value in vars(noisegauge).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert public == PUBLIC_API
