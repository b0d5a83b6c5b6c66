"""Backend: kernel IR, lowering of flattened programs, and an
OpenCL-like textual rendering of the generated kernels."""

from .kernel_ir import (  # noqa: F401
    AccessInfo,
    Count,
    HostEval,
    HostIfStmt,
    HostLoopStmt,
    HostProgram,
    Kernel,
    LaunchStmt,
    ManifestStmt,
    TileInfo,
)
from .codegen import lower_program  # noqa: F401
from .opencl_text import render_program  # noqa: F401


def passes():
    """Lowering (core IR → kernel IR).  It has no recovery: a failure
    here is a genuine compiler bug, reported with the offending IR
    attached."""
    from ..pipeline.passes import Pass

    def _lower(prog, options, ctx):
        import repro.pipeline as pl

        return pl.lower_program(prog, ctx.entry, options.in_place)

    return (
        Pass(
            name="lower",
            stage="host",
            phase="backend",
            fn=_lower,
            option_keys=("in_place",),
            fallback=None,
            optional=False,
        ),
    )
