"""Test ids kept from the deleted vector tier.

The tree-walking vector evaluator is gone; :mod:`repro.vm.jit` is the
one kernel lowering, and ``tests/vm/test_differential_jit.py`` is its
differential suite.  The names below re-collect that suite under the
ids the vector tier's mirror had, so the PR that deleted the tier
removes only a handful of test ids; they add no code and can be
deleted (with this file) at leisure.
"""

from .test_differential_jit import (  # noqa: F401
    test_jit_matches_interpreter as test_vector_matches_interpreter,
    test_jit_run_is_traceable as test_vector_run_is_traceable,
)
