"""Trembling-motion simulator for a relativistic electron in a magnetic field.

Analytic Landau-basis trajectories of a Gaussian wave packet (2+1 and 3+1),
a truncated-matrix oracle that checks their line tables, spectral line
classification into cyclotron and trembling components, and a trapped-ion
parameter mapping.  Every function exported here is one a run reaches
(tests/test_api.py checks it).  Submodules are imported lazily so the CLI
can pin the BLAS thread environment first.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "SimParams": "params",
    "Dimensionality": "params",
    "make_params": "params",
    "make_params_dimensionless": "params",
    "TransitionKind": "landau",
    "GaussianPacket": "packet",
    "Numerics": "packet",
    "PacketDecomposition": "packet",
    "decompose": "packet",
    "u_overlap": "packet",
    "Trajectory": "dynamics",
    "trajectory": "dynamics",
    "cyclotron_reference": "dynamics",
    "fibre_eigenvalues": "reference",
    "SpectrumReport": "spectral",
    "Peak": "spectral",
    "PeakLabel": "spectral",
    "spectrum": "spectral",
    "classify_peaks": "spectral",
    "richness": "spectral",
    "TrapConfig": "ionmap",
    "ExcitationPlan": "ionmap",
    "kappa_of": "ionmap",
    "trap_to_dirac": "ionmap",
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
