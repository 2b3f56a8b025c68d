"""Fixed settings of the benchmark: tolerances, baseline failures, held-out seed.

Every tolerance is no looser than the tier-1 test that makes the same check;
the test is named next to each value.  An error is compared as
``max|x - ref| <= tol * min(1, max|ref|)`` (both absolute and norm-wise
relative) unless the check says otherwise.
"""

#: seed kept out of all tuning; a later performance claim must also hold on it
HELD_OUT_SEED = 7919

#: thread-count variables of BLAS/OpenMP runtimes, all pinned to 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

TOLERANCES = {
    # tests/test_lorth.py::test_bootstrap_example1_closed_form
    "example1_closed_form": 1e-8,
    # tests/test_lorth.py::test_bootstrap_example2_matches_l_recursion
    "example2_closed_form": 1e-7,
    # tests/test_lorth.py::test_exact_rational_agrees_with_float_bootstrap
    "discrete_exact": 1e-12,
    # tests/test_lattice.py::test_integrate_example1_buffered_to_t1 (beta 1e-7, alpha 1e-6)
    "buffered_closed_form": 1e-7,
    # relative drift of tr H and det H; tests/test_cli.py::test_spectrum_from_trajectory
    # holds the spectrum (whose sum and product these are) to 1e-7
    "invariant_drift": 1e-7,
    # tests/test_lax.py::test_lax_residual_random_sweep
    "lax_residual": 1e-12,
    # tests/test_lax.py::test_spectrum_matches_dense_eigensolver (absolute)
    "spectrum_eig": 1e-9,
    # tests/test_cli.py::test_spectrum_from_trajectory (absolute)
    "isospectral_cli": 1e-7,
    # tests/test_circle.py::test_verblunsky_matches_gram_schmidt_oracle
    "verblunsky": 1e-9,
    # tests/test_circle.py::test_cd_map_matches_kernel_coeffs_complex_q
    "kernel_cd_map": 1e-10,
    # tests/test_circle.py::test_map_round_trip_random
    "cd_inverse_map": 1e-13,
    # tests/test_circle.py::test_integrate_schur_matches_measure_evolution; the cd
    # flow runs on the same window and times and is held to the same bound
    "circle_flow": 1e-6,
}

#: Tasks that fail at the baseline commit (the one this benchmark was added
#: on), as fnmatch patterns on task names, with the defect behind each.  They
#: still count as failed in every metric; they only keep ``correct`` true.
#: Any other failure sets ``correct`` to false.
BASELINE_FAILURES = {
    "measure/example1/d12/t0.[257]*":
        "moment-route conditioning: absolute error 1.6e-8 to 4.0e-8 > 1e-8",
    "measure/example1/d12/t1.00": "moment-route conditioning: error 3.0e-7 > 1e-8",
    "measure/example2/d12/t0.75": "moment-route conditioning: error 1.15e-7 > 1e-7",
    "measure/example2/d12/t1.00": "moment-route conditioning: error 1.14e-7 > 1e-7",
    "measure/example1/d20/*": "moment-route conditioning: error 4.1e-6 (t=0) to 2.4e-3 (t=1)",
    "measure/example2/d20/*": "moment-route conditioning: error 1.8e-6 (t=0) to 2.5e-3 (t=1)",
    "measure/discrete/d8/*":
        "the double-precision moment route loses ~7 digits against the exact "
        "Fraction bootstrap at depth 8: error 4e-10 to 6e-9 > 1e-12",
    "lax/spectrum/N40/*": "lax.spectrum returns all-NaN roots without an error at N >= 32",
    "lax/pipeline/N40": "ertl spectrum writes nan rows and exits 0 at N = 40",
}
