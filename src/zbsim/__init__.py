"""Trembling-motion simulator for a relativistic electron in a magnetic field.

Analytic Landau-basis trajectories of a Gaussian wave packet (2+1 and 3+1),
a brute-force truncated-matrix reference path, spectral line classification
into cyclotron and trembling components, and a trapped-ion parameter
mapping.  Submodules are imported lazily so the CLI can pin the BLAS thread
environment first.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "SimParams": "params",
    "Dimensionality": "params",
    "make_params": "params",
    "make_params_dimensionless": "params",
    "LandauLabel": "landau",
    "SpectrumPoint": "landau",
    "TransitionKind": "landau",
    "energy": "landau",
    "norm_and_chi": "landau",
    "transition_frequency": "landau",
    "GaussianPacket": "packet",
    "Numerics": "packet",
    "PacketDecomposition": "packet",
    "decompose": "packet",
    "g_z": "packet",
    "f_coeff": "packet",
    "u_overlap": "packet",
    "Trajectory": "dynamics",
    "trajectory": "dynamics",
    "position": "dynamics",
    "ladder_expectations": "dynamics",
    "cyclotron_reference": "dynamics",
    "build_matrix": "reference",
    "fibre_eigenvalues": "reference",
    "expected_eigenvalues": "reference",
    "oracle_trajectory": "reference",
    "check_transform": "reference",
    "TransformReport": "reference",
    "SpectrumReport": "spectral",
    "Peak": "spectral",
    "PeakLabel": "spectral",
    "EnvelopeSummary": "spectral",
    "spectrum": "spectral",
    "classify_peaks": "spectral",
    "richness": "spectral",
    "interband_envelope": "spectral",
    "TrapConfig": "ionmap",
    "SimulatedScales": "ionmap",
    "ExcitationPlan": "ionmap",
    "kappa_of": "ionmap",
    "trap_to_dirac": "ionmap",
    "dirac_to_trap": "ionmap",
    "excitation_plan": "ionmap",
    "RunConfig": "runner",
    "load_preset": "runner",
    "run": "runner",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _EXPORTS:
        module = __import__(f"zbsim.{_EXPORTS[name]}", fromlist=[name])
        return getattr(module, name)
    raise AttributeError(f"module 'zbsim' has no attribute {name!r}")
