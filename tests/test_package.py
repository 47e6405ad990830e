import importlib

import torusl1

MODULES = ("kernels", "coefficients", "intervals", "partial_sums",
           "quadrature", "extrema", "exceptional", "diagnostics")

EXPORTED = {
    "CertificateReport", "ConvergenceVerdict", "ConvexSequence",
    "ConvexityReport", "CrossingReport", "ExtremaTable",
    "GrowthReport", "IdentityCheck", "IntervalLimitDemo", "IntervalUnion",
    "NormTrace", "QuadResult", "ResidualResult",
    "UniformConvergenceReport", "WitnessSet", "analyze_trace",
    "boundedness_report", "build_witness", "canonical",
    "crossing_check", "default_witness_order", "dirichlet_coefficients",
    "dirichlet_eval", "dirichlet_oracle", "dirichlet_oracle_sweep",
    "fejer_coefficients", "fejer_eval", "fejer_oracle",
    "fejer_representation", "find_extrema", "growth_classification",
    "growth_sweep",
    "integrate_abs_partial_sum", "integrate_cosine_poly", "integrate_signed",
    "interval_limit_demo", "nonnegative_cells", "norm_trace",
    "origin_window_bound", "partial_sum", "partial_sum_grid",
    "reference_function_grid", "residual_identity_check", "residual_l1",
    "uniform_convergence_check", "uniform_integrability_certificate",
    "verify_convex",
}


def test_package_exports_the_union_of_module_exports():
    union = [name for mod in MODULES
             for name in importlib.import_module(f"torusl1.{mod}").__all__]
    assert torusl1.__all__ == union
    assert len(set(union)) == len(union)
    assert set(union) == EXPORTED
    for mod in MODULES:
        m = importlib.import_module(f"torusl1.{mod}")
        for name in m.__all__:
            assert getattr(torusl1, name) is getattr(m, name)
    assert not hasattr(torusl1, "product_frac")
