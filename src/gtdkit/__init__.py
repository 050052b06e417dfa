"""Geometrothermodynamics toolkit.

Builds the Legendre-invariant metric of a thermodynamic system from its
fundamental equation, computes curvature on the space of equilibrium states,
and locates the singularities that mark stability limits and phase
transitions. Includes the contact phase-space machinery (Gibbs 1-form,
Legendre transformations, Euler/Gibbs-Duhem identities) and scan/fit tools.

Exports are resolved lazily (PEP 562): `_EXPORTS` maps each public name to
the submodule that defines it, and the first access to a name imports that
submodule and what it imports. So `import gtdkit` loads only `errors`, and a
`gtdkit eval` never loads `analysis` or `phase_space`. A submodule is an
attribute too, as `gtdkit.geometry`. `__all__` and `dir()` list every name.
"""

from .errors import DegenerateMetricError, DomainError, GtdError, ParseError

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": """Axis DivergenceFit GridSpec ScanReport SingularPoint find_singular_locus
            fit_divergence_exponent fit_power_law geometric_offsets grid_scan rn_critical_points""",
        "errors": "DegenerateMetricError DomainError GtdError ParseError",
        "fundeq": """BUILTIN_NAMES SystemSpec builtin evaluate hessian intensive_variables
            load_system_file parse potential_value stability_residual_vdw to_source""",
        "geometry": """CLOSED_FORM_NAMES CurvatureReport CurvatureTensors DirectMetricField
            HessianMetricField MetricKind MetricValue christoffel closed_form_metric
            curvature_tensors hessian_positive_semidefinite load_metric_file metric_at
            metric_determinant scalar_curvature sphere_metric""",
        "jets": "Jet constant extract_partial seed_point seed_variable",
        "phase_space": """LegendreMap PhaseMetricValue PhasePoint contact_volume_coefficient
            contact_volume_expected euler_residual gibbs_duhem_residual legendre_apply
            legendre_invariance_residual lift_point phase_metric_at theta_residual""",
    }.items()
    for name in names.split()
}
_SUBMODULES = set(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # __import__ is the import statement's own path, the one `-X importtime` logs
    if name in _SUBMODULES:
        return __import__(f"{__name__}.{name}", fromlist=["*"])
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_EXPORTS[name]), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
