"""Numerical laboratory for a degenerate porous-medium equation coupled to a
pointwise Ito SDE: finite-difference operators and mesh norms, interpolation
splines, sample-path simulation, Malliavin-derivative propagation,
regularizing transforms, and an estimate-measurement harness."""

import importlib

__version__ = "0.1.0"

# public names, by submodule
_EXPORTS = {
    "analysis": """
        BenchmarkResult EstimateReport RefinementLevel RefinementResult
        SweepResult barenblatt_error bump_time_profile cauchy_refinement
        convex_energy energy_report epsilon_sweep holder_report linf_check
        malliavin_report malliavin_report_steps moment_report overlap_matrix
        pc_cross_inner transform_report weak_residual
    """,
    "grid": """
        BoundaryKind Field GridSpec backward_diff build_grid forward_diff
        free_node_count grad_h1_seminorm h02_embed h1_seminorm hminus2_norm
        l2_inner laplacian lp_norm normal_diff sample_nodal
    """,
    "interp": """
        CellFunction cell_measures interp_gap pa_eval pa_grad_l2_norm
        pa_lp_norm pa_spline pc_eval pc_gap_to_function pc_l2_inner pc_spline
        project
    """,
    "malliavin": """
        MalliavinSlice MalliavinState TangentBuffers perturbation_oracle
        propagate_path recover_drc seed_index step_malliavin
    """,
    "model": """
        BetaFamily CoefficientSet barenblatt_profile barenblatt_support_radius
        beta_gap initial_preset make_coefficients pme_beta preset_coefficients
        r2_bound regularize_beta
    """,
    "pathfile": """
        DerivativePair FormatError PathRecord RecordWriter read_record write_record
    """,
    "simulate": """
        EnsembleResult SimConfig WienerPath apply_bc cfl_dt
        coarsen_wiener gen_wiener gen_wiener_batch interior_v_mass
        prepare_initial simulate_ensemble simulate_path step
        NumericalAbort StepBuffers
    """,
    "transform": """
        PowerTransform TabulatedTransform build_transform_pair constant_weight
        degeneracy_weight holder_power_transform invert_psi
        second_difference_quotient
    """,
}

__all__ = ["__version__"]
for _module, _names in _EXPORTS.items():
    _mod = importlib.import_module(f".{_module}", __name__)
    for _name in _names.split():
        globals()[_name] = getattr(_mod, _name)
        __all__.append(_name)
del _module, _names, _mod, _name
