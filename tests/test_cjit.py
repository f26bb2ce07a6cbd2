"""The native tier: C emission, the ``.so`` cache, fallback, quarantine.

Bit-identity of the compiled C against the interpreter is the
equivalence suite's job (``test_backend_equivalence.py`` sweeps ``cjit``
with every other backend); this file covers what is *specific* to the
native tier — the compiler discovery and fingerprinting, the
signature+fingerprint ``.so`` cache levels, the pool worker's
native-before-source resolution, the jit fallback when no compiler
exists (checksums must not move, the counter must), and the quarantine
coupling: a corrupt ``.py`` source takes its ``.so``/``.c`` siblings
with it, and a corrupt ``.so`` is never re-dlopened.  It also holds the
native tier's own loop structure to the interpreter bitwise: the
strip-mined tile loop at every strip, the stride-1 loop reordering on
generated nests, and FMA contraction under ``-mfma``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import assert_identical, copy_arrays, kernel_plans, run_plans

from repro.codegen import emitc
from repro.core import (
    FusionLegalityError,
    build_execution_plan,
    derive_shift_peel,
    max_processors,
)
from repro.ir import Affine, Loop, LoopNest, LoopSequence, assign, load
from repro.runtime.backend import checksum, get_backend
from repro.runtime.plancache import PlanCache, default_cache

HAVE_CC = emitc.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


@pytest.fixture(autouse=True)
def _fresh_fallback_counters():
    emitc.reset_fallback_stats()
    yield
    emitc.reset_fallback_stats()


def _chain(scale=2.0):
    i = Affine.var("i")
    n = Affine.var("n")
    return LoopSequence(
        (
            LoopNest((Loop.make("i", 2, n - 1),),
                     (assign("a", i, load("b", i) * scale),), name="L1"),
            LoopNest((Loop.make("i", 2, n - 1),),
                     (assign("c", i, load("a", i + 1) + load("a", i - 1)),),
                     name="L2"),
        ),
        name="chain",
    )


def _plan(procs=2, n=17, scale=2.0):
    plan = derive_shift_peel(_chain(scale), ("n",))
    return build_execution_plan(plan, {"n": n}, num_procs=procs)


def _arrays(size=18, seed=0):
    rng = np.random.default_rng(seed)
    return {name: rng.random(size) + 0.5 for name in "abc"}


class TestCompilerDiscovery:
    def test_env_var_pins_and_disables(self, monkeypatch):
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        assert emitc.find_compiler() is None
        assert emitc.compiler_fingerprint() is None

    @needs_cc
    def test_fingerprint_stable_and_flag_sensitive(self):
        fp = emitc.compiler_fingerprint()
        assert fp and fp == emitc.compiler_fingerprint()
        assert len(fp) == 12 and all(c in "0123456789abcdef" for c in fp)


@needs_cc
class TestNativeModule:
    def test_source_exports_module_metadata(self):
        ep = _plan()
        source = emitc.emit_plan_c_source(ep)
        for symbol in ("REPRO_SIGNATURE", "REPRO_CODEGEN_VERSION",
                       "REPRO_NPROCS", "REPRO_PEEL_DEPS",
                       "run_fused", "run_peeled"):
            assert symbol in source
        assert ep.signature() in source

    def test_compiled_module_matches_jit_bitwise(self):
        ep = _plan()
        native = emitc.compile_plan_native(ep)
        jit = default_cache().get(ep)
        assert native.nprocs == jit.nprocs
        assert native.peel_deps == jit.peel_deps
        base = _arrays()
        got, ref = copy_arrays(base), copy_arrays(base)
        stats = native.run(got)
        ref_stats = jit.run(ref)
        assert stats == ref_stats
        assert checksum(got) == checksum(ref)

    def test_out_of_range_proc_rejected(self):
        native = emitc.compile_plan_native(_plan())
        with pytest.raises(emitc.CJitError, match="run_fused"):
            native.run_fused(native.nprocs + 3, _arrays())


@needs_cc
class TestNativeCacheLevels:
    def test_miss_then_memory_then_disk_hit(self):
        cache = default_cache()
        ep = _plan()
        module, reason = cache.get_native(ep)
        assert module is not None and reason is None
        assert cache.stats.native_misses == 1
        assert cache.stats.native_compile_seconds > 0
        fp = emitc.compiler_fingerprint()
        assert cache.native_path(module.signature, fp).exists()
        assert cache.c_source_path(module.signature).exists()
        again, _ = cache.get_native(ep)
        assert again is module
        assert cache.stats.native_memory_hits == 1
        # a fresh instance (a fresh process, in effect) dlopens the .so
        fresh = PlanCache(root=cache.root)
        loaded, reason = fresh.get_native(ep)
        assert loaded is not None and reason is None
        assert fresh.stats.native_disk_hits == 1
        assert fresh.stats.native_misses == 0
        base = _arrays()
        a, b = copy_arrays(base), copy_arrays(base)
        loaded.run(a)
        module.run(b)
        assert checksum(a) == checksum(b)

    def test_corrupt_so_quarantined_never_redlopened(self):
        """The .so is built with :func:`emitc.compile_c` directly — not
        through ``get_native`` — so this process never dlopens the intact
        object (glibc dedupes dlopen by pathname, which would mask the
        corruption with the stale-but-valid mapping)."""
        cache = default_cache()
        ep = _plan()
        sig = ep.signature()
        fp = emitc.compiler_fingerprint()
        so = cache.native_path(sig, fp)
        so.parent.mkdir(parents=True, exist_ok=True)
        emitc.compile_c(emitc.emit_plan_c_source(ep), so)
        so.write_bytes(b"this is not an ELF shared object")
        fresh = PlanCache(root=cache.root)
        assert fresh.peek_native(sig) is None
        assert fresh.stats.native_quarantined == 1
        bad = so.parent / (so.name + ".bad")
        assert bad.exists() and not so.exists()
        # the next get_native recompiles instead of trusting the corpse
        recompiled, reason = fresh.get_native(ep)
        assert recompiled is not None and reason is None
        assert fresh.stats.native_misses == 1

    def test_py_quarantine_takes_native_siblings(self):
        """Satellite: a corrupt ``.py`` source quarantines its ``.so``
        and ``.c`` siblings too — whatever corrupted the source cannot
        be assumed to have spared the objects next to it."""
        cache = default_cache()
        ep = _plan()
        module, _ = cache.get_native(ep)
        sig = module.signature
        fp = emitc.compiler_fingerprint()
        cache.source_path(sig).write_text("def broken(", encoding="utf-8")
        fresh = PlanCache(root=cache.root)
        assert fresh.peek(sig) is None
        assert fresh.stats.quarantined == 1
        assert fresh.stats.native_quarantined >= 1
        assert not cache.source_path(sig).exists()
        assert not cache.native_path(sig, fp).exists()
        assert not cache.c_source_path(sig).exists()
        so = cache.native_path(sig, fp)
        assert (so.parent / (so.name + ".bad")).exists()
        assert cache.source_path(sig).with_suffix(".bad").exists()
        # and the quarantined .so is invisible to later native lookups
        assert fresh.peek_native(sig) is None

    def test_pool_worker_resolves_native_before_source(self):
        from repro.runtime.pool import _load_module

        cache = default_cache()
        ep = _plan()
        module, _ = cache.get_native(ep)
        jit = cache.get(ep)  # .py source also on disk
        loaded, mode = _load_module({}, jit.signature, str(cache.root),
                                    jit.source)
        assert mode == "native"
        assert loaded.kind == "cjit"
        base = _arrays()
        a, b = copy_arrays(base), copy_arrays(base)
        loaded.run(a)
        jit.run(b)
        assert checksum(a) == checksum(b)


class TestFallback:
    def test_no_compiler_backend_falls_back_bit_identical(self, monkeypatch):
        """The headline no-compiler contract: same bits as jit, one note,
        a counted fallback — never an exception."""
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        ep = _plan()
        base = _arrays()
        got, ref = copy_arrays(base), copy_arrays(base)
        counts = get_backend("cjit").run(ep, got)
        ref_counts = get_backend("jit").run(ep, ref)
        assert counts == ref_counts
        assert checksum(got) == checksum(ref)
        stats = emitc.fallback_stats()
        assert stats["count"] == 1
        assert "no C compiler" in stats["last_reason"]

    def test_fallback_note_printed_once_counted_always(self, monkeypatch,
                                                       capsys):
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        ep = _plan()
        for _ in range(3):
            get_backend("cjit").run(ep, _arrays())
        err = capsys.readouterr().err
        assert err.count("cjit: falling back to jit") == 1
        assert emitc.fallback_stats()["count"] == 3

    def test_no_cache_path_falls_back_too(self, monkeypatch):
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        ep = _plan()
        base = _arrays()
        got, ref = copy_arrays(base), copy_arrays(base)
        get_backend("cjit").run(ep, got, no_cache=True)
        get_backend("jit").run(ep, ref, no_cache=True)
        assert checksum(got) == checksum(ref)
        assert emitc.fallback_stats()["count"] == 1


class TestBenchIntegration:
    def test_measure_kernel_records_native_tier(self):
        from repro.runtime.benchmarking import measure_kernel

        record = measure_kernel("jacobi", "cjit", n=21, procs=2, repeat=2)
        ref = measure_kernel("jacobi", "jit", n=21, procs=2, repeat=2)
        assert record["checksum"] == ref["checksum"]
        assert record["cjit"]["native"] is HAVE_CC
        assert "cache" in record
        if HAVE_CC:
            assert record["cjit"]["compiler_fingerprint"] \
                == emitc.compiler_fingerprint()
            assert record["cache"]["native_misses"] >= 1
        else:
            assert record["cjit"]["fallback_reason"]

    def test_measure_kernel_no_compiler_identical_checksum(self, monkeypatch):
        from repro.runtime.benchmarking import measure_kernel

        ref = measure_kernel("jacobi", "jit", n=21, procs=2, repeat=2)
        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        record = measure_kernel("jacobi", "cjit", n=21, procs=2, repeat=2)
        assert record["checksum"] == ref["checksum"]
        assert record["cjit"]["native"] is False
        assert "no C compiler" in record["cjit"]["fallback_reason"]
        assert emitc.fallback_stats()["count"] >= 1

    @needs_cc
    def test_warm_alias_reuses_cached_so(self):
        """Second prepare in the same cache: program alias plus cached
        ``.so`` — no planning, no compiling, native modules live."""
        from repro.runtime.benchmarking import (
            execute_prepared,
            prepare_kernel,
        )

        prepare_kernel("jacobi", n=21, procs=2, backend="cjit")
        prep = prepare_kernel("jacobi", n=21, procs=2, backend="cjit")
        assert prep.plans == [] and prep.native_modules
        assert prep.cache_stats.get("native_misses", 0) == 0
        _, counters, digest = execute_prepared(prep, "cjit")
        ref = prepare_kernel("jacobi", n=21, procs=2, backend="jit")
        _, ref_counters, ref_digest = execute_prepared(ref, "jit")
        assert digest == ref_digest and counters == ref_counters


class TestCliNarration:
    def test_exec_reports_native_tier(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["exec", "jacobi", "--backend", "cjit", "--n", "21",
                       "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "native tier:" in out
        if HAVE_CC:
            assert "native tier: live" in out
        else:
            assert "fell back to jit" in out

    def test_exec_no_compiler_notes_fallback(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.setenv(emitc.ENV_CC, "/nonexistent/compiler")
        rc = cli_main(["exec", "jacobi", "--backend", "cjit", "--n", "21",
                       "--repeat", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "native tier: fell back to jit" in captured.out
        assert "no C compiler" in captured.out


PAPER_AND_APPS = ["jacobi", "ll18", "calc", "filter",
                  "hydro2d", "spem", "tomcatv"]


@needs_cc
class TestStripMinedTileLoop:
    """The strip-mined fused phase is a C tile loop (paper Fig. 12);
    every strip, including strips below the kernel's largest shift, must
    reproduce the interpreter's tile order bit for bit."""

    @pytest.mark.parametrize("kernel", PAPER_AND_APPS)
    def test_strips_match_interp_bitwise(self, kernel):
        base, plans = kernel_plans(kernel, 21, 3)
        for strip in (1, 2, 3, 8):
            ref = copy_arrays(base)
            ref_counts = run_plans(plans, ref, "interp", strip=strip)
            got = copy_arrays(base)
            counts = run_plans(plans, got, "cjit", strip=strip)
            assert_identical(ref, got, (kernel, strip))
            assert counts == ref_counts, (kernel, strip)
        assert emitc.fallback_stats()["count"] == 0

    def test_source_size_independent_of_tile_count(self):
        """Source grows with the number of nests, not of tiles: jacobi at
        strip=4 has ~64x more tiles per processor at n=511 than at n=65."""
        sizes = []
        for n in (65, 511):
            _, plans = kernel_plans("jacobi", n, 4)
            sizes.append(len(emitc.emit_plan_c_source(plans[0], strip=4)))
        assert sizes[1] < 2 * sizes[0], sizes


def _cpu_has_fma() -> bool:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return any(line.startswith("flags") and "fma" in line.split()
               for line in text.splitlines())


@needs_cc
class TestFmaContraction:
    """``-ffp-contract=off`` keeps ``a*b+c`` two roundings even where the
    compiler may emit FMA: with ``-mfma`` added, ll18 and calc (whose
    statements multiply then add) must still match the interpreter."""

    @pytest.mark.parametrize("kernel", ["ll18", "calc"])
    def test_mfma_build_matches_interp(self, kernel, monkeypatch, tmp_path):
        if not _cpu_has_fma():
            pytest.skip("CPU lacks FMA")
        monkeypatch.setattr(emitc, "CFLAGS", emitc.CFLAGS + ("-mfma",))
        try:
            emitc.compile_c("int probe;\n", tmp_path / "probe.so")
        except emitc.CJitCompileError:
            pytest.skip("compiler rejects -mfma")
        base, plans = kernel_plans(kernel, 65, 4)
        ref = copy_arrays(base)
        run_plans(plans, ref, "interp")
        got = copy_arrays(base)
        for ep in plans:
            emitc.compile_plan_native(ep).run(got)
        assert_identical(ref, got, kernel)


# ---------------------------------------------------------------------------
# Generated adversarial nests for the stride-1 loop reordering.
# ---------------------------------------------------------------------------

LOOP_VARS = ("i", "j", "k")


def _subscripts(perm, offsets=None, strided=None):
    """Subscript ``c * var[perm[p]] + offsets[p]`` at each position p,
    with ``c`` = 2 for the loop dimension ``strided`` and 1 otherwise."""
    offsets = offsets or (0,) * len(perm)
    return tuple(Affine.var(LOOP_VARS[d]) * (2 if d == strided else 1) + off
                 for d, off in zip(perm, offsets))


@st.composite
def layout_nests(draw):
    """A 2-D or 3-D sequence whose subscripts permute the loop variables.

    Nest ``L1`` writes ``a`` under a random permutation, reading ``b``
    under another (transposed) one and ``a`` itself at +/-1 offsets
    along every loop but the outermost, which shift-and-peel fuses and
    so must stay a true doall.  A loop is ``parallel=False`` when a
    self-read offsets its variable (the flag then tells the truth) or
    at random.  Uniform self-reads make their dimension carry a
    dependence, so it runs as an ordered scalar loop; to reach the
    buffered path, an inner loop may instead index ``a`` with stride 2
    and the self-reads hit the odd elements between the even ones it
    writes: no dependence, yet ranges the hazard analysis cannot
    separate.  An optional ``L2`` writes ``c`` under a third
    permutation from ``a`` at offsets, so the plan shifts and peels.
    """
    depth = draw(st.sampled_from([2, 3]))
    perms = st.permutations(range(depth))
    offsets = st.tuples(*[st.integers(-1, 1)] * depth)
    target, source, consumer_target = draw(perms), draw(perms), draw(perms)
    strided = draw(st.sampled_from([None, *range(1, depth)]))
    self_reads = draw(st.lists(offsets, max_size=2))
    source_offsets = draw(offsets)
    consumer_reads = draw(st.lists(offsets, max_size=2))
    sequential = draw(st.lists(st.booleans(), min_size=depth,
                               max_size=depth))
    sequential[0] = False  # shift-and-peel fuses only doall loops
    self_reads = [
        tuple(0 if d == 0 else 2 * off + 1 if d == strided else off
              for d, off in zip(target, offs))
        for offs in self_reads
    ]
    for offs in self_reads:
        for d, off in zip(target, offs):
            if off and d != strided:
                sequential[d] = True
    consumer_reads = [
        tuple(2 * off if d == strided else off
              for d, off in zip(target, offs))
        for offs in consumer_reads
    ]
    n = Affine.var("n")
    loops = tuple(Loop.make(LOOP_VARS[d], 1, n - 2,
                            parallel=not sequential[d])
                  for d in range(depth))
    rhs = load("b", *_subscripts(source, source_offsets)) * 0.5
    for offs in self_reads:
        rhs = rhs + load("a", *_subscripts(target, offs, strided))
    nests = [LoopNest(loops, (assign("a", _subscripts(target, None, strided),
                                     rhs),), name="L1")]
    if consumer_reads:
        rhs = None
        for offs in consumer_reads:
            term = load("a", *_subscripts(target, offs, strided))
            rhs = term if rhs is None else rhs - term
        nests.append(LoopNest(
            loops, (assign("c", _subscripts(consumer_target), rhs * 1.5),),
            name="L2",
        ))
    return LoopSequence(tuple(nests), name="layout"), depth


@needs_cc
class TestGeneratedNests:
    @given(layout_nests(), st.integers(5, 9), st.integers(1, 3),
           st.sampled_from([None, 1, 2, 3]), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cjit_matches_interp_bitwise(self, case, n, procs, strip, seed):
        seq, depth = case
        plan = derive_shift_peel(seq, ("n",), seq.fusable_depth())
        params = {"n": n}
        procs = min(procs, max_processors(plan, params)[0])
        try:
            ep = build_execution_plan(plan, params, num_procs=procs)
        except FusionLegalityError:
            ep = build_execution_plan(plan, params, num_procs=1)
        rng = np.random.default_rng(seed)
        # stride-2 subscripts reach index 2n - 1
        base = {name: rng.random((2 * n,) * depth) + 0.5 for name in "abc"}
        ref = copy_arrays(base)
        # strip=None is one tile per processor: the whole fused box
        ref_counts = get_backend("interp").run(
            ep, ref, strip=strip if strip is not None else n,
        )
        got = copy_arrays(base)
        counts = get_backend("cjit").run(ep, got, strip=strip, no_cache=True)
        assert emitc.fallback_stats()["count"] == 0
        assert counts == ref_counts
        assert_identical(ref, got, (str(seq), n, procs, strip))
