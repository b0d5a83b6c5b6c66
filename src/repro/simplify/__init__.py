"""The simplification engine of the compiler pipeline (Fig. 3):
inlining, rule-based simplification, CSE, dead-code removal and
hoisting, applied to a fixpoint."""

from .engine import simplify_fun, simplify_prog  # noqa: F401
from .inline import inline_prog  # noqa: F401
from .rules import simplify_body_once  # noqa: F401
from .cse import cse_body  # noqa: F401
from .dce import dce_body, dce_prog  # noqa: F401
from .hoist import hoist_body  # noqa: F401


def simplify_pass(hoisting: bool = True):
    """The pass callable shared by the pipeline's three fixpoint sites
    (``simplify``, ``post-fusion-simplify``, ``post-flatten-simplify``).

    It looks ``simplify_prog`` up through ``repro.pipeline`` at call
    time, so monkeypatching ``repro.pipeline.simplify_prog`` (as the
    chaos tests do) affects every site, and records on the pass span
    how many rounds the slowest function took to converge."""

    def run(prog, options, ctx):
        import repro.pipeline as pl

        rounds = []
        out = pl.simplify_prog(prog, hoisting=hoisting, rounds=rounds)
        ctx.annotate(simplify_rounds=max(rounds, default=0))
        return out

    return run


def passes():
    """Inlining and the first simplification fixpoint."""
    from ..pipeline.passes import Pass

    def _inline(prog, options, ctx):
        import repro.pipeline as pl

        return pl.inline_prog(prog, keep=ctx.entry)

    return (
        Pass(
            name="inline",
            stage="core",
            phase="simplify",
            fn=_inline,
            optional=False,
        ),
        Pass(
            name="simplify",
            stage="core",
            phase="simplify",
            fn=simplify_pass(),
        ),
    )
