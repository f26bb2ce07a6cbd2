"""Lower an :class:`~repro.core.execplan.ExecutionPlan` to native C.

The numpy codegen (:mod:`repro.codegen.emitpy`) removed the plan
*interpretation* cost, but every generated statement still pays numpy's
per-call overhead — temporaries, broadcasting setup, dispatch — which
dominates on small shapes, exactly the regime where fusion's locality win
should show.  This module renders the same plan as a self-contained C
translation unit with the identical module shape:

* one function per processor phase (``_fused_p<i>`` / ``_peeled_p<i>``),
  every fused box and peeled rectangle as literal ``for`` loops with the
  plan's parameters folded into the bounds.  With a ``strip``, the fused
  phase is the strip-mined loop of the paper's Fig. 12 in C: loops over
  position-space tiles in lexicographic order and, per tile, each nest
  in sequence order with its bounds clamped to the tile
  (``repro_max``/``repro_min``), so source size grows with the number
  of nests, not of tiles;
* the same exported metadata the Python module carries — signature,
  ``NPROCS``, per-processor iteration counts and the ``PEEL_DEPS``
  point-to-point sync map — as ``REPRO_*`` symbols, so a cold process can
  validate and run a cached ``.so`` without the ``.c`` or ``.py`` source;
* ``long run_fused(long proc, double **arrays, const long *dims)`` /
  ``run_peeled`` entry points (array pointers and concrete shapes are
  runtime inputs: shapes are deliberately *not* part of the structural
  plan signature, mirroring how the numpy module reads them off the
  arrays it is handed).

Bit-identity with the interpreter is preserved by construction.  The
numpy module executes each statement as "evaluate the RHS over the whole
box, then store"; a naive C loop interleaves loads and stores
element-by-element.  The two agree unless a statement *reads the array it
writes* at overlapping locations inside the vectorized sub-box, so the
emitter performs that hazard analysis per (statement, box): provably safe
statements (identical subscripts, or a dimension with provably disjoint
index ranges) become direct elementwise loops, anything else evaluates
into a scratch buffer first and stores after — exactly numpy's
semantics.  Scalar (non-vectorized) dimensions stay ordered outer loops
in both tiers, so dependences they carry behave identically.  Inside
them, each statement's vector dimensions are ordered by the target's
subscripts: the dimension indexing the last (stride-1, row-major)
subscript runs innermost, ties keep IR order.  Element order there is
free — a direct statement's hazard analysis proved it irrelevant, a
buffered one fills and stores in the same order — so this only buys
locality.  Arithmetic is plain IEEE-754 double with the same
expression-tree shape numpy evaluates, compiled with ``-O2``,
**without** ``-ffast-math`` and with ``-ffp-contract=off`` (no fused
multiply-add), so every element's value is bit-identical.

The compiled ``.so`` is cached by :mod:`repro.runtime.plancache` next to
the ``.py`` source, keyed by the structural plan signature *plus* a
compiler fingerprint (:func:`compiler_fingerprint`), and loaded with
:mod:`ctypes`.  When no compiler is present or compilation fails, the
``cjit`` backend falls back to ``jit`` with a one-line note and a
counter (:func:`note_fallback`) — never an error.
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import MutableMapping, Optional, Sequence

import numpy as np

from ..core.execplan import ExecutionPlan
from ..ir.access import ArrayRef
from ..ir.expr import Affine
from ..ir.loop import LoopNest
from ..ir.stmt import BinOp, Const, Expr, Load, UnaryOp
from .emitpy import CODEGEN_VERSION, JitEmitError, _box_volume

IND = "    "

#: Portable, bit-identical IEEE-754 codegen.  No ``-ffast-math``
#: (reassociation breaks bit-identity), no ``-march`` (the cache may be
#: shared between machines of one ISA family), and ``-ffp-contract=off``:
#: GCC's GNU-C default ``-ffp-contract=fast`` fuses ``a*b+c`` into one
#: FMA (a single rounding) wherever the target has FMA — aarch64 at
#: baseline, x86 once ``-mfma``/``-march`` arrives via the compiler or
#: a ``$REPRO_CC`` wrapper — and numpy rounds the product first.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

ENV_CC = "REPRO_CC"

#: Seconds before a hung compiler invocation is abandoned (and the
#: backend falls back to jit).
COMPILE_TIMEOUT = 120.0


class CJitError(RuntimeError):
    """Base class for native-tier failures."""


class CJitEmitError(CJitError, JitEmitError):
    """The plan contains a construct the C emitter cannot lower."""


class CJitCompileError(CJitError):
    """Compilation failed or a cached ``.so`` is corrupt/stale."""


class NativeUnavailable(CJitError):
    """No C compiler on this machine — callers fall back to ``jit``."""


# ---------------------------------------------------------------------------
# Compiler discovery and fingerprinting.
# ---------------------------------------------------------------------------


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler to use, or None.

    ``$REPRO_CC`` pins (or, when set to something unresolvable, disables)
    the compiler; otherwise the conventional names are probed in order.
    """
    env = os.environ.get(ENV_CC)
    if env is not None:
        return shutil.which(env)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


_fingerprints: dict[str, str] = {}


def compiler_fingerprint(compiler: Optional[str] = None) -> Optional[str]:
    """Short stable digest of (compiler identity, flags), or None.

    Part of the ``.so`` cache key and of the auto-tuner's machine
    fingerprint: a compiler upgrade must recompile cached objects and
    invalidate persisted tuning winners instead of replaying stale ones.
    """
    import hashlib

    if compiler is None:
        compiler = find_compiler()
    if compiler is None:
        return None
    cached = _fingerprints.get(compiler)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10.0,
        )
        identity = (out.stdout or out.stderr).splitlines()[0:1]
        identity = identity[0] if identity else compiler
    except (OSError, subprocess.SubprocessError, IndexError):
        identity = compiler
    digest = hashlib.sha256(
        f"{identity}|{' '.join(CFLAGS)}".encode()
    ).hexdigest()[:12]
    _fingerprints[compiler] = digest
    return digest


# ---------------------------------------------------------------------------
# Fallback accounting: cjit never errors for a missing/broken compiler,
# it falls back to jit with a note and a counter.
# ---------------------------------------------------------------------------

_fallbacks = {"count": 0, "last_reason": None}
_noted_reasons: set[str] = set()


def note_fallback(reason: str) -> None:
    """Record one cjit→jit fallback; print each distinct reason once."""
    _fallbacks["count"] += 1
    _fallbacks["last_reason"] = reason
    if reason not in _noted_reasons:
        _noted_reasons.add(reason)
        print(f"cjit: falling back to jit — {reason}", file=sys.stderr)


def fallback_stats() -> dict:
    return dict(_fallbacks)


def reset_fallback_stats() -> None:
    _fallbacks["count"] = 0
    _fallbacks["last_reason"] = None
    _noted_reasons.clear()


# ---------------------------------------------------------------------------
# Rendering helpers.
# ---------------------------------------------------------------------------


def _c_double(value: float) -> str:
    """A Python float as a C double literal with identical bits
    (``repr`` round-trips through ``strtod``)."""
    if not math.isfinite(value):
        raise CJitEmitError(f"non-finite constant {value!r}")
    text = repr(float(value))
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return f"({text})"


def _linear_c(const: int, terms: Sequence[tuple[str, int]]) -> str:
    """Render ``sum(c * v_var) + const`` as a C long expression."""
    parts: list[str] = []
    for var, coeff in terms:
        name = f"v_{var}"
        if coeff == 1:
            parts.append(name)
        elif coeff == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{coeff}*{name}")
    if const or not parts:
        parts.append(str(const))
    return " + ".join(parts)


@dataclass(frozen=True)
class _ArrayLayout:
    """Global array table of one plan: pointer index and dims offset."""

    order: tuple[str, ...]
    ndims: dict[str, int]
    index: dict[str, int]
    dims_offset: dict[str, int]

    @property
    def total_dims(self) -> int:
        return sum(self.ndims[name] for name in self.order)

    def spec_string(self) -> str:
        return ",".join(f"{name}:{self.ndims[name]}" for name in self.order)


def _collect_refs(nests: Sequence[LoopNest]):
    for nest in nests:
        for stmt in nest.body:
            yield stmt.target
            yield from stmt.rhs.loads()


def _array_layout(nests: Sequence[LoopNest]) -> _ArrayLayout:
    ndims: dict[str, int] = {}
    for ref in _collect_refs(nests):
        rank = len(ref.subscripts)
        seen = ndims.setdefault(ref.array, rank)
        if seen != rank:
            raise CJitEmitError(
                f"array {ref.array!r} referenced with both {seen} and "
                f"{rank} subscripts"
            )
    order = tuple(sorted(ndims))
    index = {name: k for k, name in enumerate(order)}
    dims_offset: dict[str, int] = {}
    offset = 0
    for name in order:
        dims_offset[name] = offset
        offset += ndims[name]
    return _ArrayLayout(order=order, ndims=ndims, index=index,
                        dims_offset=dims_offset)


class _CBoxCtx:
    """Static rendering context for one (nest, box) pair, C flavour.

    Unlike :class:`emitpy._BoxCtx`, every dimension becomes a ``for``
    loop; the vectorized/scalar split (the same
    :func:`~repro.runtime.fastexec.vector_dims` legality analysis) only
    drives the *ordering semantics*: scalar dims are outer ordered
    loops shared by all statements, and each statement iterates the
    vector sub-box on its own — with a buffered store when it reads its
    own target at potentially overlapping locations (numpy evaluates
    the whole RHS before storing; C must too, there).

    ``box`` drives the hazard analysis and, by default, the literal loop
    bounds.  ``bounds`` may replace those with C expressions (the
    strip-mined tile clamps); ``box`` must then contain every range they
    take, which keeps the analysis sound, and ``extents`` caps each
    dimension's trip count for sizing the scratch buffer.
    """

    def __init__(self, nest: LoopNest, box, vdims: tuple[int, ...],
                 params, layout: _ArrayLayout, bounds=None,
                 extents=None) -> None:
        self.nest = nest
        self.box = box
        self.vdims = vdims
        self.params = params
        self.layout = layout
        self.bounds = bounds or tuple((str(lo), str(hi)) for lo, hi in box)
        self.extents = extents or tuple(
            max(0, hi - lo + 1) for lo, hi in box
        )
        self.vvar_dim = {nest.loops[d].var: d for d in vdims}
        self.svars = {
            nest.loops[d].var for d in range(nest.depth) if d not in vdims
        }

    def split(self, sub: Affine):
        """Fold ``sub`` into (const, scalar terms, vector-dim terms)."""
        const = sub.const
        terms: list[tuple[str, int]] = []
        vds: list[tuple[int, int]] = []
        for var, coeff in sub.coeffs:
            if var in self.vvar_dim:
                vds.append((self.vvar_dim[var], coeff))
            elif var in self.svars:
                terms.append((var, coeff))
            elif var in self.params:
                const += coeff * self.params[var]
            else:
                raise CJitEmitError(
                    f"unknown name {var!r} in subscript of nest "
                    f"{self.nest.name!r}"
                )
        return const, terms, vds

    # -- hazard analysis ---------------------------------------------------

    def _vrange(self, const: int, vds) -> tuple[int, int]:
        """Value interval of ``const + sum(c * v_d)`` over the box."""
        lo = hi = const
        for d, coeff in vds:
            blo, bhi = self.box[d]
            a, b = coeff * blo, coeff * bhi
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi

    def _dim_disjoint(self, write: Affine, read: Affine) -> bool:
        """True when this dimension provably separates the write region
        from the read region for every fixed scalar iteration."""
        wc, wt, wv = self.split(write)
        rc, rt, rv = self.split(read)
        if wt != rt:
            return False  # scalar offsets differ: cannot cancel them
        wlo, whi = self._vrange(wc, wv)
        rlo, rhi = self._vrange(rc, rv)
        return whi < rlo or rhi < wlo

    def stmt_needs_buffer(self, stmt) -> bool:
        """Does numpy's evaluate-all-then-store order matter here?

        Only when the statement loads its own target array at subscripts
        that are neither identical to the write map nor provably
        disjoint from it inside the vector sub-box.  Dependences carried
        by scalar dimensions are executed in the same order by both
        tiers and need no buffering.
        """
        for ref in stmt.rhs.loads():
            if ref.array != stmt.target.array:
                continue
            if ref.subscripts == stmt.target.subscripts:
                continue  # element reads exactly itself
            if any(self._dim_disjoint(w, r) for w, r in
                   zip(stmt.target.subscripts, ref.subscripts)):
                continue
            return True
        return False

    # -- source fragments --------------------------------------------------

    def _index_c(self, sub: Affine) -> str:
        const, terms, vds = self.split(sub)
        all_terms = list(terms) + [
            (self.nest.loops[d].var, coeff) for d, coeff in vds
        ]
        return _linear_c(const, all_terms)

    def addr_c(self, ref: ArrayRef) -> str:
        """The flat C index expression of ``ref`` (row-major strides)."""
        rank = self.layout.ndims[ref.array]
        if len(ref.subscripts) != rank:  # pragma: no cover - layout guards
            raise CJitEmitError(f"rank mismatch on {ref.array!r}")
        pieces: list[str] = []
        for d, sub in enumerate(ref.subscripts):
            idx = self._index_c(sub)
            if d == rank - 1:
                pieces.append(f"({idx})")
            else:
                pieces.append(f"({idx})*s_{ref.array}_{d}")
        return " + ".join(pieces)

    def expr_c(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            return _c_double(expr.value)
        if isinstance(expr, Load):
            return f"a_{expr.ref.array}[{self.addr_c(expr.ref)}]"
        if isinstance(expr, BinOp):
            left = self.expr_c(expr.left)
            right = self.expr_c(expr.right)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, UnaryOp):
            return f"(-{self.expr_c(expr.operand)})"
        raise CJitEmitError(f"cannot lower expression {expr!r}")

    def loop_line(self, d: int, depth: int) -> str:
        lo, hi = self.bounds[d]
        var = f"v_{self.nest.loops[d].var}"
        return (f"{IND * depth}for (long {var} = {lo}; {var} <= {hi}; "
                f"{var}++) {{")

    def vorder(self, stmt) -> list[int]:
        """``stmt``'s vector dims, outermost first, ordered by the last
        target subscript each one indexes: the dimension behind the
        stride-1 (last, row-major) subscript runs innermost.  Ties keep
        IR order.  Any order is legal here: a direct statement's hazard
        analysis proved element order irrelevant, a buffered one
        evaluates its whole RHS before storing, and ``vector_dims``
        makes the write map injective."""
        subs = stmt.target.subscripts

        def last_subscript(d: int) -> int:
            var = self.nest.loops[d].var
            return max((p for p, sub in enumerate(subs) if sub.coeff(var)),
                       default=-1)

        return sorted(self.vdims, key=last_subscript)

    def _vloops(self, order: Sequence[int],
                depth: int) -> tuple[list[str], int]:
        lines = []
        for d in order:
            lines.append(self.loop_line(d, depth))
            depth += 1
        return lines, depth

    def stmt_lines(self, stmt, depth: int) -> tuple[list[str], int]:
        """C lines executing ``stmt`` over the vector sub-box at
        ``depth``; returns (lines, scratch doubles needed)."""
        store = f"a_{stmt.target.array}[{self.addr_c(stmt.target)}]"
        rhs = self.expr_c(stmt.rhs)
        order = self.vorder(stmt)
        if not self.stmt_needs_buffer(stmt):
            lines, inner = self._vloops(order, depth)
            lines.append(f"{IND * inner}{store} = {rhs};")
            for level in range(inner - 1, depth - 1, -1):
                lines.append(f"{IND * level}}}")
            return lines, 0
        # Buffered store: evaluate the whole RHS first (numpy semantics),
        # then copy it into place in the same traversal order.
        lines = [f"{IND * depth}{{ long _k = 0;"]
        loops, inner = self._vloops(order, depth + 1)
        lines.extend(loops)
        lines.append(f"{IND * inner}_buf[_k++] = {rhs};")
        for level in range(inner - 1, depth, -1):
            lines.append(f"{IND * level}}}")
        lines.append(f"{IND * (depth + 1)}_k = 0;")
        loops, inner = self._vloops(order, depth + 1)
        lines.extend(loops)
        lines.append(f"{IND * inner}{store} = _buf[_k++];")
        for level in range(inner - 1, depth, -1):
            lines.append(f"{IND * level}}}")
        lines.append(f"{IND * depth}}}")
        return lines, math.prod(self.extents[d] for d in self.vdims)


def emit_box_c(nest: LoopNest, box, params, layout: _ArrayLayout,
               vdims: Optional[tuple[int, ...]] = None, bounds=None,
               extents=None) -> tuple[list[str], int]:
    """C lines executing every iteration of ``nest`` inside ``box``.

    Returns (lines, scratch doubles needed).  Empty boxes produce no
    code, like :func:`emitpy.emit_box`.  ``bounds``/``extents``: see
    :class:`_CBoxCtx`.
    """
    if any(hi < lo for lo, hi in box):
        return [], 0
    if vdims is None:
        from ..runtime.fastexec import vector_dims

        vdims = vector_dims(nest)
    sdims = [d for d in range(nest.depth) if d not in vdims]
    ctx = _CBoxCtx(nest, box, vdims, params, layout, bounds, extents)
    out: list[str] = ["{"]
    depth = 1
    for d in sdims:
        out.append(ctx.loop_line(d, depth))
        depth += 1
    scratch = 0
    for stmt in nest.body:
        lines, need = ctx.stmt_lines(stmt, depth)
        out.extend(lines)
        scratch = max(scratch, need)
    for level in range(depth - 1, 0, -1):
        out.append(f"{IND * level}}}")
    out.append("}")
    return out, scratch


# ---------------------------------------------------------------------------
# Whole-plan emission.
# ---------------------------------------------------------------------------


def _stride_lines(arrays: set[str], layout: _ArrayLayout) -> list[str]:
    """Per-function pointer and row-major stride bindings."""
    lines = []
    for name in sorted(arrays):
        lines.append(f"{IND}double *a_{name} = A[{layout.index[name]}];")
        rank = layout.ndims[name]
        offset = layout.dims_offset[name]
        for d in range(rank - 1):
            factors = [f"D[{offset + k}]" for k in range(d + 1, rank)]
            lines.append(
                f"{IND}const long s_{name}_{d} = {' * '.join(factors)};"
            )
    return lines


class _Phase:
    """One processor-phase function under construction: body lines,
    iteration count, arrays touched and scratch doubles needed."""

    def __init__(self, params, nest_vdims, layout: _ArrayLayout) -> None:
        self.params = params
        self.nest_vdims = nest_vdims
        self.layout = layout
        self.body: list[str] = []
        self.count = 0
        self.arrays: set[str] = set()
        self.scratch = 0

    def box_lines(self, nest_idx: int, nest: LoopNest, box,
                  bounds=None, extents=None) -> list[str]:
        lines, need = emit_box_c(nest, box, self.params, self.layout,
                                 vdims=self.nest_vdims[nest_idx],
                                 bounds=bounds, extents=extents)
        if lines:
            self.scratch = max(self.scratch, need)
            self.arrays |= nest.arrays()
        return lines

    def add_boxes(self, chunks) -> None:
        """Each (nest_idx, nest, box) chunk as one literal loop nest."""
        for nest_idx, nest, box in chunks:
            lines = self.box_lines(nest_idx, nest, box)
            if not lines:
                continue
            self.count += _box_volume(box)
            self.body.append(f"{IND}/* nest {nest_idx} box={box} */")
            self.body.extend(f"{IND}{line}" for line in lines)

    def add_tiles(self, proc, nests: Sequence[LoopNest], plan_depth: int,
                  shifts, strip: int) -> None:
        """The strip-mined fused block (paper Fig. 12) as C tile loops.

        Mirrors :func:`~repro.runtime.parallel.fused_tile_boxes`:
        position-space tiles of ``strip`` in lexicographic order and,
        per tile, the nests in sequence order, each clamped to its fused
        box with ``repro_max``/``repro_min`` (a nest missing from a tile
        gets an empty range, and its loops run zero times).  Source size
        grows with the number of nests, not tiles.  Hazard analysis runs
        over the whole fused box, which contains every tile's box.
        """
        from ..runtime.parallel import fused_position_extent

        extent = fused_position_extent(proc, plan_depth, len(nests), shifts)
        if extent is None:
            return
        depth = 1
        for d, (lo, hi) in enumerate(extent):
            self.body.append(f"{IND * depth}for (long _t{d} = {lo}; "
                             f"_t{d} <= {hi}; _t{d} += {strip}) {{")
            depth += 1
        for k, nest in enumerate(nests):
            fused = tuple(proc.fused[k])
            clamps: list[str] = []
            bounds = [(str(lo), str(hi)) for lo, hi in fused]
            extents = [max(0, hi - lo + 1) for lo, hi in fused]
            for d in range(plan_depth):
                s = shifts(k, d)
                lo, hi = fused[d]
                clamps.append(
                    f"const long _l{d} = repro_max({lo}, _t{d} + {-s}), "
                    f"_h{d} = repro_min({hi}, _t{d} + {strip - 1 - s});"
                )
                bounds[d] = (f"_l{d}", f"_h{d}")
                extents[d] = min(strip, extents[d])
            lines = self.box_lines(k, nest, fused, bounds, extents)
            if not lines:
                continue
            self.count += _box_volume(fused)
            self.body.append(f"{IND * depth}{{ /* nest {k} fused={fused} */")
            self.body.extend(f"{IND * (depth + 1)}{c}" for c in clamps)
            self.body.extend(f"{IND * (depth + 1)}{line}" for line in lines)
            self.body.append(f"{IND * depth}}}")
        for level in range(depth - 1, 0, -1):
            self.body.append(f"{IND * level}}}")

    def function_c(self, name: str) -> list[str]:
        """The phase as a C function returning 0 on success, nonzero on
        scratch-allocation failure."""
        out = [f"static int {name}(double **A, const long *D) {{",
               f"{IND}(void)A; (void)D;"]
        if self.count:
            out.extend(_stride_lines(self.arrays, self.layout))
            if self.scratch:
                out.append(
                    f"{IND}double *_buf = (double *)malloc({self.scratch} * "
                    f"sizeof(double));"
                )
                out.append(f"{IND}if (!_buf) return 1;")
            out.extend(self.body)
            if self.scratch:
                out.append(f"{IND}free(_buf);")
        out.append(f"{IND}return 0;")
        out.append("}")
        return out


def _long_array(name: str, values: Sequence[int]) -> str:
    vals = ", ".join(str(v) for v in values) if values else "0"
    return f"const long {name}[] = {{{vals}}};"


def emit_plan_c_source(exec_plan: ExecutionPlan,
                       strip: Optional[int] = None) -> str:
    """Render ``exec_plan`` as a self-contained C translation unit.

    Same module shape as :func:`emitpy.emit_plan_source`: per-processor
    fused functions, a barrier comment, per-processor peeled functions,
    then the exported metadata and the two entry points the worker pool
    (and the serial ``run`` wrapper) call.
    """
    from ..core.syncdeps import peel_predecessors
    from ..runtime.fastexec import _sorted_rects, vector_dims

    plan = exec_plan.plan
    nests = list(plan.seq)
    params = exec_plan.params
    nest_vdims = [vector_dims(nest) for nest in nests]
    layout = _array_layout(nests)
    signature = exec_plan.signature(strip=strip)
    nprocs = len(exec_plan.processors)

    lines: list[str] = [
        "/* Generated by repro.codegen.emitc — do not edit. */",
        f"/* codegen-version: {CODEGEN_VERSION} */",
        "#include <stdlib.h>",
        "",
        f'const char *REPRO_SIGNATURE = "{signature}";',
        f"const long REPRO_CODEGEN_VERSION = {CODEGEN_VERSION};",
        f"const long REPRO_NPROCS = {nprocs};",
        f'const char *REPRO_ARRAYS = "{layout.spec_string()}";',
        "",
    ]
    fused_names: list[str] = []
    peeled_names: list[str] = []
    fused_counts: list[int] = []
    peeled_counts: list[int] = []
    if strip is not None:
        lines.extend([
            "static inline long repro_max(long a, long b) "
            "{ return a > b ? a : b; }",
            "static inline long repro_min(long a, long b) "
            "{ return a < b ? a : b; }",
            "",
        ])
    for p, proc in enumerate(exec_plan.processors):
        fused = _Phase(params, nest_vdims, layout)
        if strip is None:
            fused.add_boxes((k, nests[k], tuple(proc.fused[k]))
                            for k in range(len(nests)))
        else:
            fused.add_tiles(proc, nests, plan.depth, plan.shift, strip)
        name = f"_fused_p{p}"
        lines.extend(fused.function_c(name))
        lines.append("")
        fused_names.append(name)
        fused_counts.append(fused.count)

        peeled = _Phase(params, nest_vdims, layout)
        peeled.add_boxes((rect.nest_idx, nests[rect.nest_idx], rect.ranges)
                         for rect in _sorted_rects(proc))
        name = f"_peeled_p{p}"
        lines.extend(peeled.function_c(name))
        lines.append("")
        peeled_names.append(name)
        peeled_counts.append(peeled.count)

    deps = peel_predecessors(exec_plan)
    offsets = [0]
    flat: list[int] = []
    for preds in deps:
        flat.extend(preds)
        offsets.append(len(flat))

    lines.append(_long_array("REPRO_FUSED_COUNTS", fused_counts))
    lines.append(_long_array("REPRO_PEELED_COUNTS", peeled_counts))
    lines.append("/* Point-to-point sync map (see emitpy PEEL_DEPS): the")
    lines.append("   predecessors of processor p occupy")
    lines.append("   REPRO_PEEL_DEPS[REPRO_PEEL_DEPS_OFF[p] ..")
    lines.append("   REPRO_PEEL_DEPS_OFF[p+1]). */")
    lines.append(_long_array("REPRO_PEEL_DEPS_OFF", offsets))
    lines.append(_long_array("REPRO_PEEL_DEPS", flat))
    lines.append("")
    dispatch = ", ".join(fused_names)
    lines.append(f"static int (*const _FUSED_FNS[])(double **, const long *) "
                 f"= {{{dispatch}}};")
    dispatch = ", ".join(peeled_names)
    lines.append(f"static int (*const _PEELED_FNS[])(double **, const long *)"
                 f" = {{{dispatch}}};")
    lines.append("")
    lines.append("long run_fused(long proc, double **arrays, "
                 "const long *dims) {")
    lines.append(f"{IND}if (proc < 0 || proc >= REPRO_NPROCS) return -1;")
    lines.append(f"{IND}if (_FUSED_FNS[proc](arrays, dims)) return -1;")
    lines.append(f"{IND}return REPRO_FUSED_COUNTS[proc];")
    lines.append("}")
    lines.append("")
    lines.append("/* ---- barrier (Sec. 3.4) ---- */")
    lines.append("")
    lines.append("long run_peeled(long proc, double **arrays, "
                 "const long *dims) {")
    lines.append(f"{IND}if (proc < 0 || proc >= REPRO_NPROCS) return -1;")
    lines.append(f"{IND}if (_PEELED_FNS[proc](arrays, dims)) return -1;")
    lines.append(f"{IND}return REPRO_PEELED_COUNTS[proc];")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The ctypes module wrapper.
# ---------------------------------------------------------------------------


@dataclass
class CJitModule:
    """A compiled-and-loaded native plan with the JitModule interface.

    ``run``/``run_fused``/``run_peeled`` take the same arguments as the
    Python :class:`~repro.codegen.emitpy.JitModule` entry points (the
    pool calls them interchangeably); pointers and concrete shapes are
    marshalled from the arrays dict on each call and memoized while the
    arrays stay put.
    """

    signature: str
    source: str
    path: str
    nprocs: int
    peel_deps: tuple[tuple[int, ...], ...]
    fused_counts: tuple[int, ...]
    peeled_counts: tuple[int, ...]
    array_spec: tuple[tuple[str, int], ...]
    kind: str = "cjit"
    _lib: object = field(default=None, repr=False)
    _args_cache: tuple = field(default=None, repr=False)

    def _marshal(self, arrays: MutableMapping[str, np.ndarray]):
        key = tuple(
            (name, arrays[name].ctypes.data, arrays[name].shape)
            for name, _ in self.array_spec
        )
        if self._args_cache is not None and self._args_cache[0] == key:
            return self._args_cache[1], self._args_cache[2]
        ptrs = (ctypes.POINTER(ctypes.c_double) * len(self.array_spec))()
        dims: list[int] = []
        for k, (name, ndim) in enumerate(self.array_spec):
            try:
                arr = arrays[name]
            except KeyError:
                raise CJitError(f"missing array {name!r}") from None
            if arr.dtype != np.float64 or not arr.flags.c_contiguous:
                raise CJitError(
                    f"array {name!r} must be C-contiguous float64 for the "
                    f"native tier"
                )
            if arr.ndim != ndim:
                raise CJitError(
                    f"array {name!r} has rank {arr.ndim}, plan expects {ndim}"
                )
            ptrs[k] = arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double))
            dims.extend(int(d) for d in arr.shape)
        dims_arr = (ctypes.c_long * max(1, len(dims)))(*dims)
        self._args_cache = (key, ptrs, dims_arr)
        return ptrs, dims_arr

    def run_fused(self, proc: int,
                  arrays: MutableMapping[str, np.ndarray]) -> int:
        ptrs, dims = self._marshal(arrays)
        count = self._lib.run_fused(proc, ptrs, dims)
        if count < 0:
            raise CJitError(f"native run_fused({proc}) failed")
        return count

    def run_peeled(self, proc: int,
                   arrays: MutableMapping[str, np.ndarray]) -> int:
        ptrs, dims = self._marshal(arrays)
        count = self._lib.run_peeled(proc, ptrs, dims)
        if count < 0:
            raise CJitError(f"native run_peeled({proc}) failed")
        return count

    def run(self, arrays: MutableMapping[str, np.ndarray]) -> dict:
        fused = 0
        for proc in range(self.nprocs):
            fused += self.run_fused(proc, arrays)
        # ---- barrier (Sec. 3.4) ----
        peeled = 0
        for proc in range(self.nprocs):
            peeled += self.run_peeled(proc, arrays)
        return {"fused_iterations": fused, "peeled_iterations": peeled}


def _read_long(lib, name: str) -> int:
    return int(ctypes.c_long.in_dll(lib, name).value)


def _read_longs(lib, name: str, count: int) -> tuple[int, ...]:
    return tuple(int(v) for v in (ctypes.c_long * count).in_dll(lib, name))


def load_native(path, expected_signature: Optional[str] = None,
                source: str = "") -> CJitModule:
    """dlopen a compiled plan and validate it against its expected shape.

    Raises :class:`CJitCompileError` for anything suspect — unloadable
    file, missing symbols, stale codegen version or signature mismatch —
    so callers can quarantine the entry and recompile.
    """
    path = Path(path)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise CJitCompileError(f"cannot load {path.name}: {exc}") from exc
    try:
        signature = ctypes.c_char_p.in_dll(lib, "REPRO_SIGNATURE").value
        signature = signature.decode() if signature else ""
        version = _read_long(lib, "REPRO_CODEGEN_VERSION")
        nprocs = _read_long(lib, "REPRO_NPROCS")
        spec_raw = ctypes.c_char_p.in_dll(lib, "REPRO_ARRAYS").value
        spec_raw = spec_raw.decode() if spec_raw else ""
        if nprocs <= 0:
            raise CJitCompileError(f"{path.name}: bad NPROCS {nprocs}")
        fused_counts = _read_longs(lib, "REPRO_FUSED_COUNTS", nprocs)
        peeled_counts = _read_longs(lib, "REPRO_PEELED_COUNTS", nprocs)
        offsets = _read_longs(lib, "REPRO_PEEL_DEPS_OFF", nprocs + 1)
        flat = _read_longs(lib, "REPRO_PEEL_DEPS", max(1, offsets[-1]))
        lib.run_fused.argtypes = [
            ctypes.c_long, ctypes.POINTER(ctypes.POINTER(ctypes.c_double)),
            ctypes.POINTER(ctypes.c_long),
        ]
        lib.run_fused.restype = ctypes.c_long
        lib.run_peeled.argtypes = lib.run_fused.argtypes
        lib.run_peeled.restype = ctypes.c_long
    except CJitCompileError:
        raise
    except (ValueError, AttributeError) as exc:
        raise CJitCompileError(
            f"{path.name} lacks the native entry points/metadata "
            f"(produced by an older codegen?): {exc}"
        ) from exc
    if version != CODEGEN_VERSION:
        raise CJitCompileError(
            f"stale native module: codegen v{version}, expected "
            f"v{CODEGEN_VERSION}"
        )
    if expected_signature is not None and signature != expected_signature:
        raise CJitCompileError(
            f"stale native module: signature {signature[:12]}... does not "
            f"match expected {expected_signature[:12]}..."
        )
    array_spec = []
    try:
        if spec_raw:
            for item in spec_raw.split(","):
                name, ndim = item.split(":")
                array_spec.append((name, int(ndim)))
    except ValueError as exc:
        raise CJitCompileError(
            f"{path.name}: bad REPRO_ARRAYS {spec_raw!r}"
        ) from exc
    peel_deps = tuple(
        tuple(flat[offsets[p]:offsets[p + 1]]) for p in range(nprocs)
    )
    return CJitModule(
        signature=signature, source=source, path=str(path), nprocs=nprocs,
        peel_deps=peel_deps, fused_counts=fused_counts,
        peeled_counts=peeled_counts, array_spec=tuple(array_spec),
        _lib=lib,
    )


def compile_c(source: str, so_path, compiler: Optional[str] = None,
              c_path=None) -> Path:
    """Compile ``source`` into ``so_path`` (atomically) and return it.

    ``c_path`` optionally persists the intermediate ``.c`` next to the
    object for post-mortem reading; otherwise a scratch file is used.
    """
    if compiler is None:
        compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable(
            "no C compiler found (set $REPRO_CC or install cc)"
        )
    so_path = Path(so_path)
    so_path.parent.mkdir(parents=True, exist_ok=True)
    scratch = None
    if c_path is None:
        scratch = tempfile.NamedTemporaryFile(
            mode="w", suffix=".c", dir=so_path.parent, delete=False,
            encoding="utf-8",
        )
        scratch.write(source)
        scratch.close()
        c_path = Path(scratch.name)
    else:
        c_path = Path(c_path)
        tmp = c_path.with_suffix(f".ctmp{os.getpid()}")
        tmp.write_text(source, encoding="utf-8")
        os.replace(tmp, c_path)
    tmp_so = so_path.with_suffix(f".sotmp{os.getpid()}")
    cmd = [compiler, *CFLAGS, "-o", str(tmp_so), str(c_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=COMPILE_TIMEOUT)
    except (OSError, subprocess.SubprocessError) as exc:
        raise CJitCompileError(f"{compiler} failed to run: {exc}") from exc
    finally:
        if scratch is not None:
            try:
                os.unlink(scratch.name)
            except OSError:
                pass
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout or "").strip()[-500:]
        try:
            tmp_so.unlink()
        except OSError:
            pass
        raise CJitCompileError(
            f"{compiler} exited {proc.returncode}: {tail}"
        )
    os.replace(tmp_so, so_path)
    return so_path


def compile_plan_native(exec_plan: ExecutionPlan,
                        strip: Optional[int] = None,
                        compiler: Optional[str] = None) -> CJitModule:
    """Emit and compile ``exec_plan`` without touching any cache.

    Raises :class:`NativeUnavailable` when no compiler is present and
    :class:`CJitCompileError` when compilation fails — the ``cjit``
    backend converts both into a counted fallback to ``jit``.
    """
    if compiler is None:
        compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable(
            "no C compiler found (set $REPRO_CC or install cc)"
        )
    signature = exec_plan.signature(strip=strip)
    source = emit_plan_c_source(exec_plan, strip=strip)
    with tempfile.TemporaryDirectory(prefix="repro-cjit-") as workdir:
        so_path = Path(workdir) / f"{signature}.so"
        compile_c(source, so_path, compiler=compiler)
        # dlopen keeps the mapping alive after the directory is removed.
        return load_native(so_path, expected_signature=signature,
                           source=source)
