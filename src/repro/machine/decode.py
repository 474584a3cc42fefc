"""The ``decoded`` engine: one instruction per dispatch.

The legacy :meth:`~repro.machine.cpu.CPU._run_legacy` loop re-resolves
every operand form (register vs. immediate, base/index/displacement
addressing, access size) on every executed instruction, through a
dict dispatch and a stack of helper calls.  This engine runs each pc
on its *one-instruction fuser* instead: the instruction's template
from :mod:`repro.machine.blocks`, with the operand form resolved and
the operands bound, compiled once per shape per process and built the
first time the pc executes.  It is the ``blocks`` engine without
fusion — the same templates, one instruction per call — and pairs
with the classic memory-timing model.

Execution is **bit-identical** to the legacy loop: identical
``RunResult`` statistics (instructions, µops, stalls, HardBound and
memory-system counters), identical trap types, messages and faulting
pcs.  ``tests/machine/test_engine_differential.py`` enforces this.

:func:`bind_env` binds the per-run state every fuser references, for
both template-driven engines.
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace

from repro.caches.fast import FastMemorySystem
from repro.hardbound.engine import HardBoundEngine
from repro.layout import TAG1_BASE, TAG1_SHIFT, TAG4_BASE, TAG4_SHIFT
from repro.machine.blocks import _Fuser, _charge
from repro.machine.errors import (
    HaltSignal,
    InstructionLimitExceeded,
    MemoryFault,
    Trap,
)
from repro.metadata.encodings import make_inline_compressible


def bind_env(cpu) -> SimpleNamespace:
    """Bind the per-run state the instruction templates reference.

    Every fuser of a run — block or one-instruction — is bound to the
    fields of this one namespace (``repro.machine.blocks._ENV_FIELDS``
    maps each template name to its field), so block dispatch and
    single steps share the *same* probe closures, counter cells and
    memory arena cells.  Besides the register arrays, arenas and
    metadata tables the inline templates touch, the env exposes every
    engine entry point the generic templates call, in the legacy
    handlers' order (``mem_read``/``mem_write``/``mem_sbrk``,
    ``temporal_check``, the observer, ``hb_check``, the word and
    sub-word metadata paths and the output channel ``emit``).  The
    remaining fields (``full_mode``, ``inline_check``, ``use_words``,
    the timing model) select the templates.
    """
    env = SimpleNamespace()
    regs = cpu.regs
    env.value = regs.value
    env.rbase = regs.base
    env.rbound = regs.bound
    memory = cpu.memory
    env.memory = memory
    env.mem_read = memory.read
    env.mem_write = memory.write
    env.mem_sbrk = memory.sbrk
    env.read_cstring = memory.read_cstring
    env.raw_read = memory.raw_read
    env.raw_write = memory.raw_write
    # flat-heap fast path state: the arena cells (stable across heap
    # growth — see repro.machine.memory) and the fixed segment bounds
    # (only the heap break moves after construction, so it is re-read
    # from ``memory`` on every access)
    env.heap_cell = memory.heap_cell
    env.glob_cell = memory.globals_cell
    env.stack_cell = memory.stack_cell
    env.globals_limit = memory.globals_limit
    env.stack_base = memory.stack_base
    # word-view access needs native little-endian casts on all three
    # arenas (true everywhere but big-endian hosts)
    env.use_words = (memory.heap_cell[1] is not None
                     and memory.globals_cell[1] is not None
                     and memory.stack_cell[1] is not None)
    env.n_instrs = len(cpu.program.instrs)
    env.full_mode = cpu.full_mode
    temporal = cpu.temporal
    env.temporal = temporal
    env.temporal_check = temporal.check if temporal is not None else None
    env.observer = cpu.observer
    memsys = cpu.memsys
    env.memsys = memsys
    env.data_access = memsys.access if memsys is not None else None

    hb = cpu.hb
    env.hb = hb
    if hb is not None:
        env.hb_stats = hb.stats
        env.hb_check = hb.check
        env.hb_load_word = hb.load_word_meta
        env.hb_load_sub = hb.load_sub_meta
        env.hb_store_word = hb.store_word_meta
        env.hb_store_sub = hb.store_sub_meta
        env.meta_map = hb.meta._meta
        env.meta_get = env.meta_map.get
        env.meta_pop = env.meta_map.pop
        enc = hb.encoding
        # stock encodings get a flat is_compressible closure and
        # inline tag-address arithmetic; subclassed encodings keep
        # their methods and take the generic path
        comp_inline = make_inline_compressible(enc)
        env.is_comp = comp_inline if comp_inline is not None \
            else enc.is_compressible
        if comp_inline is not None:
            env.tag_base, env.tag_shift = ((TAG4_BASE, TAG4_SHIFT)
                                           if enc.tag_bits == 4
                                           else (TAG1_BASE, TAG1_SHIFT))
        else:
            env.tag_base = env.tag_shift = None
        # the stock engine with paper-default knobs and a stock
        # encoding is inlined into the word templates; ablations and
        # substituted engines/encodings take the generic template
        env.inline_check = (type(hb) is HardBoundEngine
                            and not hb.check_uop
                            and not hb.check_access_extent
                            and env.tag_base is not None)
    else:
        env.hb_stats = None
        env.hb_check = env.hb_load_word = env.hb_load_sub = None
        env.hb_store_word = env.hb_store_sub = None
        env.meta_map = env.meta_get = env.meta_pop = None
        env.is_comp = None
        env.inline_check = False
        env.tag_base = env.tag_shift = None

    # the fast timing model hands out single-call probes for the hot
    # access shapes (plus the cells to inline their composite-hit
    # path); the probes are generated per cache geometry with the
    # array-backed way scans unrolled, and every fuser of the run
    # calls these same probes.  The classic model keeps its generic
    # entry point
    if memsys is not None and isinstance(memsys, FastMemorySystem):
        (env.dprobe, env.dp_mru, env.dp_ctr,
         env.dp_shift) = memsys.data_probe_parts()
        env.sprobe = memsys.make_shadow_probe() if hb is not None \
            else None
        if env.inline_check:
            (env.wprobe, env.wp_mru, env.wp_dctr, env.wp_tctr,
             env.wp_shift) = memsys.word_probe_parts(env.tag_base,
                                                     env.tag_shift)
        else:
            env.wprobe = None
    else:
        env.dprobe = env.sprobe = env.wprobe = None
        env.dp_mru = env.dp_ctr = env.dp_shift = None
    if env.wprobe is None:
        env.wp_mru = env.wp_dctr = env.wp_tctr = env.wp_shift = None

    out_append = cpu.output.append
    capture = cpu.config.capture_output
    echo = cpu.config.echo_output
    if capture and echo:
        def emit(text):
            out_append(text)
            print(text, end="")
    elif capture:
        emit = out_append
    elif echo:
        def emit(text):
            print(text, end="")
    else:
        def emit(text):
            pass
    env.emit = emit
    return env


def execute_decoded(cpu):
    """Run ``cpu`` to halt one instruction at a time.

    Mirrors the legacy loop's observable behaviour exactly: the same
    instruction counting (including the instruction that busts the
    limit), the same faulting-pc annotation on traps, and the same
    final ``cpu.pc``/``cpu.icount`` on every exit path.  The
    one-instruction fusers are built inside the loop, on each pc's
    first execution; those seconds are charged to ``decode`` (with
    :func:`bind_env`), not ``execute``, and the fuser compiles and
    their source bytes are left in ``cpu.fuser_compiles`` /
    ``cpu.fuser_source_bytes``.
    """
    from repro.machine.cpu import RunResult

    t0 = perf_counter()
    fuser = _Fuser(cpu, bind_env(cpu))
    decode_s = perf_counter() - t0
    steps = fuser.steps
    n = len(steps)
    limit = cpu.config.max_instructions
    pc = cpu.pc
    lpc = pc
    icount = cpu.icount
    t0 = perf_counter()
    timed = False
    try:
        # ``pc`` can never go negative (branch targets are label
        # indices, indirect targets are masked-unsigned register
        # values), so the out-of-range fetch of the legacy loop is the
        # IndexError of ``steps[pc]`` — the common path pays no bounds
        # compare at all.
        while True:
            fn = steps[pc]
            if fn is None:
                fn = fuser.step(pc)
            lpc = pc
            icount += 1
            if icount > limit:
                raise InstructionLimitExceeded(limit)
            npc = fn(pc)
            pc = pc + 1 if npc is None else npc
    except HaltSignal as halt:
        # the phases must land before RunResult snapshots them
        _charge(cpu, fuser, "decode", decode_s, perf_counter() - t0)
        timed = True
        cpu.icount = icount
        cpu.pc = pc
        return RunResult(cpu, halt.code)
    except IndexError:
        if 0 <= pc < n:  # a genuine IndexError from inside a fuser
            cpu.icount = icount
            cpu.pc = lpc
            raise
        cpu.icount = icount
        cpu.pc = lpc
        raise MemoryFault(pc, "fetch").at(lpc)
    except Trap as trap:
        cpu.icount = icount
        cpu.pc = lpc
        raise trap.at(lpc)
    except BaseException:
        cpu.icount = icount
        cpu.pc = lpc
        raise
    finally:
        if not timed:
            _charge(cpu, fuser, "decode", decode_s, perf_counter() - t0)
