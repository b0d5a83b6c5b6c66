"""Memory representation, locality optimisations (Section 5.2) and
device-memory planning: symbolic index functions, transposition-based
coalescing, block tiling in fast (local) memory, and liveness-based
allocation planning.

``coalesce_program``/``tile_program``/``plan_memory`` are exported
lazily: they operate on the kernel IR, which itself uses
:class:`IndexFn`, and an eager import would be circular.
"""

from .index_fn import IndexFn  # noqa: F401

__all__ = ["IndexFn", "coalesce_program", "tile_program", "plan_memory"]


def __getattr__(name):
    if name == "coalesce_program":
        from .coalescing import coalesce_program

        return coalesce_program
    if name == "tile_program":
        from .tiling import tile_program

        return tile_program
    if name == "plan_memory":
        from .plan import plan_memory

        return plan_memory
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def passes():
    """The locality optimisations and device-memory planning.  Each is
    optional: ``disabled_passes`` removes it from the plan, which is
    its §6.1.1 ablation (no layout changes, no local-memory tiles, the
    naive never-free allocation schedule)."""
    from ..pipeline.passes import Pass

    def _coalesce(hp, options, ctx):
        import repro.pipeline as pl

        return pl.coalesce_program(hp)

    def _tile(hp, options, ctx):
        import repro.pipeline as pl

        return pl.tile_program(hp)

    def _plan(hp, options, ctx):
        import repro.pipeline as pl

        return pl.plan_memory(hp, allow_elision=options.in_place)

    return (
        Pass(
            name="coalescing",
            stage="host",
            phase="memory",
            fn=_coalesce,
            # 2: manifests of loop-invariant arrays are hoisted out of
            # host loops.
            version=2,
        ),
        Pass(
            name="tiling",
            stage="host",
            phase="memory",
            fn=_tile,
        ),
        Pass(
            name="memory-plan",
            stage="host",
            phase="memory",
            fn=_plan,
            option_keys=("in_place",),
            # 2: no rule of its own for manifests in host loops
            # (coalescing places them); a version-1 plan of K-means
            # freed a block its next iteration's manifest read.
            version=2,
        ),
    )
