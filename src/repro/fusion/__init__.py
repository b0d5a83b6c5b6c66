"""The fusion engine (Section 4): producer-consumer fusion by T2 graph
reduction, horizontal fusion, and the streaming-SOAC rules F1–F7."""

from .fuse import fuse_body, fuse_prog  # noqa: F401
from .stream_rules import (  # noqa: F401
    map_to_stream_seq,
    reduce_to_stream_red,
    reduce_to_stream_seq,
    scan_to_stream_seq,
    sequentialise_body_to_stream_seq,
)


def passes():
    """Producer-consumer/horizontal fusion and its cleanup
    simplification."""
    from ..pipeline.passes import Pass
    from ..simplify import simplify_pass

    def _fusion(prog, options, ctx):
        import repro.pipeline as pl
        from ..obs import get_metrics

        fused, fstats = pl.fuse_prog(prog)
        # Publish before the driver revalidates: the stats describe
        # what fusion *did*, which stays true even if the guard then
        # rolls the IR back.
        ctx.fusion_stats = fstats
        ctx.annotate(
            fused_vertical=fstats.vertical,
            fused_horizontal=fstats.horizontal,
        )
        metrics = get_metrics()
        metrics.counter("fusion.vertical").inc(fstats.vertical)
        metrics.counter("fusion.horizontal").inc(fstats.horizontal)
        return fused

    return (
        Pass(
            name="fusion",
            stage="core",
            phase="fusion",
            fn=_fusion,
            enabled=lambda o: o.fusion,
            option_keys=("fusion",),
        ),
        Pass(
            name="post-fusion-simplify",
            stage="core",
            phase="fusion",
            fn=simplify_pass(),
            enabled=lambda o: o.fusion,
        ),
    )
