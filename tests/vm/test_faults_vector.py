"""Test ids kept from the deleted vector tier (see
``tests/vm/test_differential.py``): ``tests/vm/test_faults_jit.py``
re-collected under the ids its vector mirror had."""

from .test_faults_jit import (  # noqa: F401
    test_chaos_jit as test_chaos_vector,
    test_fatal_fault_degrades_jit_to_interpreter
    as test_fatal_fault_degrades_vector_to_interpreter,
    test_jit_retries_land_on_attempt_tracks
    as test_vector_retries_land_on_attempt_tracks,
)
