"""Kernel transpiler: core-IR kernel expressions to Python/NumPy source.

The reference interpreter runs a map kernel by evaluating its lambda
once per element.  This package walks the kernel's IR tree *once* per
launch signature and emits a straight-line NumPy program that runs the
lambda once over a *batch*: every scalar in the lambda body becomes an
array with one entry per thread of the flat index space, every scalar
operation becomes one ufunc application over a named local, and every
constant is hoisted to module level.  Nested maps extend the batch (a
``(B, n)`` batch is a ``B*n`` batch in row-major order) — the
execution-side mirror of the flattening the compiler itself performs.
This is the one kernel lowering of the repository; the rules below are
its definition.

Values are tracked statically as :class:`JVal` descriptors — a kind
(uniform scalar ``S``, uniform array ``A``, or batched ``B``), element
type and rank.  The kinds are fully static because a kernel launch
environment contains only uniform values: batched values are
introduced (and eliminated) by the SOAC structure of the expression
itself, which the transpiler sees.  Uniform scalar arithmetic calls the
very same ``eval_binop``/``eval_unop``/... used by the interpreter, so
scalar results are bit-identical by construction; batched arithmetic
emits guarded ufunc sequences (:func:`.elementwise.np_binop`).

Associative folds run the way a GPU runs them: a ``reduce`` that
selects an argument by a key (argmin) as one ``np.argmin``
(:func:`.folds.gen_select`), any other kernel-level ``reduce`` as a
log-depth pairwise tree, a ``stream_red`` with one
chunk per lane and a tree over the lane accumulators
(:func:`.folds.tree_combine`), and a loop that accumulates into an
array — the in-place histogram of the paper's Fig. 4c — as one ordered
scatter-accumulate over its whole iteration space
(:func:`.control.gen_accumulate`).  A thread's loop that sums into
scalars runs as its lanes would, in lockstep: its terms as a map over
blocks of the iteration space, its sums added in loop order
(:func:`.control.gen_sum`).

Divergent control flow is handled as a SIMT GPU masks its lanes: a
lane evaluates only the arm of a batched ``if`` it takes, and a
data-dependent loop runs only its live lanes, compacted as they stop
(:func:`.control.gen_live`).  An arm runs on its own lanes, compacted
to them, unless neither arm has a trap site that can fire on some
lanes and not on others (:func:`.elementwise._trap_free`): such arms
run on every lane and merge with ``np.where`` (:func:`.control.gen_if`).
Nothing is ever substituted: every trap condition is checked, and
hands the launch over wherever it is.

The scalar interpreter stays the sole reference semantics, through two
escape hatches:

* :class:`JitUnsupported` is raised *at transpile time* for constructs
  outside the transpilable subset (function calls, batched streams,
  ...).  The engine memoizes the failure and runs every launch of that
  kernel on the interpreter.
* ``JitFallback`` is raised *at run time* by generated code whenever a
  trap check fires — the error message, or the decision that it is no
  error at all, is the interpreter's to make.  The engine catches it
  and re-runs that launch on the interpreter.  Generated code never
  mutates an array it did not itself allocate, so the re-run starts
  from unmodified inputs.

Generated modules are self-contained (they import only ``numpy`` and
stable ``repro`` entry points), so their source can be persisted
verbatim in the artifact cache and ``compile()``d in a later process
without re-transpiling.

The package is laid out by lowering rule.  A rule is a plain function
of ``(codegen, exp, scope)`` — what the dispatch table
(``core._GEN``) maps an expression class to — and each rule module
(:mod:`.elementwise`, :mod:`.control`, :mod:`.arrays`, :mod:`.maps`,
:mod:`.folds`) ends with the table rows naming its rules;
:mod:`.values` holds the value domain above and :mod:`.core` the
:class:`~.core.KernelCodegen` the rules emit through.  DESIGN.md §14
lists which function emits each rule.  :mod:`.host` is not a rule
module: it transpiles the host program around the kernels into one
function, through the same emitter and the uniform scalar rules.
"""

from .core import PYCODE_SCHEMA, transpile_kernel
from .values import JitUnsupported

__all__ = ["JitUnsupported", "transpile_kernel", "PYCODE_SCHEMA"]
