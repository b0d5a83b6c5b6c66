"""Static checking: types and shapes, alias analysis (Fig. 5), and
uniqueness / in-place-update checking (Fig. 6)."""

from .errors import AliasError, CheckError, TypeCheckError, UniquenessError  # noqa: F401
from .typecheck import TypeChecker, check_types  # noqa: F401
from .alias import AliasAnalysis  # noqa: F401
from .uniqueness import UniquenessChecker, check_uniqueness  # noqa: F401


def check_program(prog, check_unique: bool = True):
    """Run the full static-checking pipeline on a program.

    Returns the :class:`TypeChecker` (whose tables later passes reuse);
    raises a :class:`CheckError` subclass on the first violation.
    """
    tc = check_types(prog)
    if check_unique:
        check_uniqueness(prog)
    return tc


def passes():
    """The frontend check, the first pass of the pipeline.

    It has no recovery: a malformed input program is the caller's
    error, not a pass bug.
    """
    from ..pipeline.passes import Pass

    def _check(prog, options, ctx):
        import repro.pipeline as pl

        pl.check_program(prog, check_unique=options.check_uniqueness)
        return prog

    return (
        Pass(
            name="check",
            stage="frontend",
            phase="frontend",
            fn=_check,
            enabled=lambda o: o.check,
            option_keys=("check", "check_uniqueness"),
            fallback=None,
            optional=False,
        ),
    )
