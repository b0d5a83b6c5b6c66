"""Flattening / kernel extraction (Section 5.1): reorganises
imperfectly nested parallelism into perfect SOAC nests using the rules
G1–G7 of Fig. 12."""

from .context import MapCtx, lift_type, manifest  # noqa: F401
from .distribute import FlattenOptions, flatten_body, flatten_prog  # noqa: F401
from .interchange import apply_g5_body, vec_operator  # noqa: F401
from .nests import NestInfo, perfect_nests  # noqa: F401


def passes():
    """Kernel extraction and its cleanup simplification.

    Flattening is mandatory, so a failure cannot simply be rolled
    back; its recovery is the most conservative strategy (outermost
    parallelism only), and only if that also fails does the compile
    end in a :class:`~repro.errors.CompilerBug`.
    """
    from ..pipeline.passes import Pass
    from ..simplify import simplify_pass

    def _flatten(prog, options, ctx):
        import repro.pipeline as pl

        return pl.flatten_prog(prog, pl.FlattenOptions(
            distribute=options.distribute,
            interchange=options.interchange,
            reduce_map_interchange=options.reduce_map_interchange,
            sequentialise_streams=options.sequentialise_streams,
        ))

    def _conservative(prog, options, ctx):
        import repro.pipeline as pl

        return pl.flatten_prog(prog, pl._CONSERVATIVE_FLATTEN)

    return (
        Pass(
            name="flatten",
            stage="core",
            phase="kernel-extraction",
            fn=_flatten,
            option_keys=(
                "distribute",
                "interchange",
                "reduce_map_interchange",
                "sequentialise_streams",
            ),
            fallback=_conservative,
            optional=False,
        ),
        Pass(
            name="post-flatten-simplify",
            stage="core",
            phase="kernel-extraction",
            # Post-flattening cleanup must not hoist: pulling bindings
            # out of lambda bodies could perturb the perfect nests just
            # built.
            fn=simplify_pass(hoisting=False),
        ),
    )
