"""Hand-written micro-kernels.

These small programs exercise specific behaviours of the machine and of the
integration mechanism in isolation; they are used throughout the test suite
and the examples.  Each returns a ready-to-run
:class:`~repro.isa.program.Program` whose exit code is the kernel's result
(so tests can compare the timing core against the functional emulator and
against a closed-form expected value).
"""

from __future__ import annotations

from repro.isa.program import Program, ProgramBuilder

# Base address used for in-memory data structures set up by the kernels.
GLOBAL_BASE = 0x0020_0000


def _exit_with(builder: ProgramBuilder, reg: str = "v0") -> None:
    """Emit the standard epilogue: print the result and exit with it."""
    builder.mov("a0", reg)
    builder.syscall(1)
    builder.syscall(0)


def counted_loop(iterations: int = 100, step: int = 3) -> Program:
    """Sum ``step`` into an accumulator ``iterations`` times.

    The loop body is fully predictable and contains a program-constant
    re-initialisation, so with general reuse enabled the ``li`` instruction
    integrates on every iteration.
    """
    b = ProgramBuilder(name=f"counted_loop_{iterations}")
    b.label("main")
    b.li("s0", 0)
    b.li("s1", iterations)
    b.label("loop")
    b.li("t0", step)                 # program constant: integrates
    b.rr("addq", "s0", "s0", "t0")
    b.ri("subqi", "s1", "s1", 1)
    b.cbr("bgt", "s1", "loop")
    _exit_with(b, "s0")
    return b.build(entry="main")


def array_sum(length: int = 64, stride: int = 1) -> Program:
    """Initialise an array with ``i`` and sum it.

    Exercises the data cache, load issue, and (with integration) the reuse of
    the loop's address-generation constants.
    """
    b = ProgramBuilder(name=f"array_sum_{length}")
    b.label("main")
    b.li("gp", GLOBAL_BASE)
    b.li("t0", 0)                    # index
    b.li("t1", length)
    b.mov("t2", "gp")
    b.label("init")
    b.stq("t0", 0, "t2")
    b.ri("addqi", "t2", "t2", 8 * stride)
    b.ri("addqi", "t0", "t0", 1)
    b.rr("cmplt", "t3", "t0", "t1")
    b.cbr("bne", "t3", "init")
    b.li("s0", 0)                    # sum
    b.li("t0", 0)
    b.mov("t2", "gp")
    b.label("sum")
    b.ldq("t4", 0, "t2")
    b.rr("addq", "s0", "s0", "t4")
    b.ri("addqi", "t2", "t2", 8 * stride)
    b.ri("addqi", "t0", "t0", 1)
    b.rr("cmplt", "t3", "t0", "t1")
    b.cbr("bne", "t3", "sum")
    _exit_with(b, "s0")
    return b.build(entry="main")


def fib_recursive(n: int = 12) -> Program:
    """Naive recursive Fibonacci.

    This is the classic stress test for reverse integration: every call
    saves ``ra``, ``s0`` and ``a0`` to the stack frame and restores them on
    the way out, and the stack-pointer adjustments nest perfectly.
    """
    b = ProgramBuilder(name=f"fib_{n}")
    b.label("main")
    b.li("a0", n)
    b.bsr("fib")
    _exit_with(b, "v0")

    b.label("fib")
    b.lda("sp", -32, "sp")
    b.stq("ra", 0, "sp")
    b.stq("s0", 8, "sp")
    b.stq("a0", 16, "sp")
    b.ri("cmplei", "t0", "a0", 1)
    b.cbr("bne", "t0", "fib_base")
    b.ri("subqi", "a0", "a0", 1)
    b.bsr("fib")
    b.mov("s0", "v0")
    b.ldq("a0", 16, "sp")
    b.ri("subqi", "a0", "a0", 2)
    b.bsr("fib")
    b.rr("addq", "v0", "v0", "s0")
    b.br("fib_done")
    b.label("fib_base")
    b.mov("v0", "a0")
    b.label("fib_done")
    b.ldq("a0", 16, "sp")
    b.ldq("s0", 8, "sp")
    b.ldq("ra", 0, "sp")
    b.lda("sp", 32, "sp")
    b.ret()
    return b.build(entry="main")


def pointer_chase(nodes: int = 64, hops: int = 256) -> Program:
    """Build a singly linked ring and chase it.

    Serial dependent loads make this memory-latency bound (the ``mcf``-like
    behaviour): integration has little to offer, which is exactly the point.
    """
    b = ProgramBuilder(name=f"pointer_chase_{nodes}_{hops}")
    node_size = 16
    b.label("main")
    b.li("gp", GLOBAL_BASE)
    # Build the ring: node[i].next = &node[i+1], last points back to first.
    b.li("t0", 0)
    b.li("t1", nodes - 1)
    b.mov("t2", "gp")
    b.label("build")
    b.ri("addqi", "t3", "t2", node_size)
    b.stq("t3", 0, "t2")             # next pointer
    b.stq("t0", 8, "t2")             # payload = index
    b.mov("t2", "t3")
    b.ri("addqi", "t0", "t0", 1)
    b.rr("cmplt", "t4", "t0", "t1")
    b.cbr("bne", "t4", "build")
    b.stq("gp", 0, "t2")             # close the ring
    b.stq("t0", 8, "t2")
    # Chase.
    b.li("s0", 0)                    # sum of payloads
    b.li("s1", hops)
    b.mov("t2", "gp")
    b.label("chase")
    b.ldq("t3", 8, "t2")
    b.rr("addq", "s0", "s0", "t3")
    b.ldq("t2", 0, "t2")
    b.ri("subqi", "s1", "s1", 1)
    b.cbr("bgt", "s1", "chase")
    _exit_with(b, "s0")
    return b.build(entry="main")


def pointer_chase_memory_bound(nodes: int = 12, hops: int = 2048,
                               stride: int = 512 * 1024) -> Program:
    """A pointer chase whose every hop misses all the way to main memory.

    The ring nodes sit ``stride`` bytes apart.  The default stride equals
    one way of the 2MB 4-way L2 (8192 sets x 64-byte lines), so every node
    maps to the *same* set of both the L2 (4 ways) and the 32KB 2-way DL1;
    with more nodes than ways, LRU evicts each line long before the ring
    comes back around and every hop pays the full main-memory latency.
    Serial dependent loads mean the machine fills its windows and then sits
    provably idle for most of each miss -- the workload that the run
    loop's horizon jumps are for, and the adversarial case for any clocking
    scheme that must stay bit-identical across long quiescent spans.  The
    chase loop is kept to the minimal three instructions (dependent load,
    trip counter, branch) so the active cycles between misses stay small
    next to the quiescent span of each miss.
    """
    b = ProgramBuilder(name=f"pointer_chase_mem_{nodes}_{hops}")
    b.label("main")
    b.li("gp", GLOBAL_BASE)
    b.li("t5", stride)
    # Build the ring: node[i].next = &node[i+1], last points back to first.
    b.li("t0", 0)
    b.li("t1", nodes - 1)
    b.mov("t2", "gp")
    b.label("build")
    b.rr("addq", "t3", "t2", "t5")
    b.stq("t3", 0, "t2")             # next pointer
    b.stq("t0", 8, "t2")             # payload = index
    b.mov("t2", "t3")
    b.ri("addqi", "t0", "t0", 1)
    b.rr("cmplt", "t4", "t0", "t1")
    b.cbr("bne", "t4", "build")
    b.stq("gp", 0, "t2")             # close the ring
    b.stq("t0", 8, "t2")
    # Chase: nothing but the serial dependent load and loop control.
    b.li("s1", hops)
    b.mov("t2", "gp")
    b.label("chase")
    b.ldq("t2", 0, "t2")
    b.ri("subqi", "s1", "s1", 1)
    b.cbr("bgt", "s1", "chase")
    # Exit with the payload of the final node (one last dependent load),
    # so a wrong chase cannot terminate with the right value.
    b.ldq("s0", 8, "t2")
    _exit_with(b, "s0")
    return b.build(entry="main")


def save_restore_chain(depth: int = 6, iterations: int = 32) -> Program:
    """A chain of functions, each saving/restoring callee-saved registers.

    ``iterations`` calls of a ``depth``-deep call chain where every level
    saves ``ra`` and two callee-saved registers: the densest possible source
    of reverse-integration (speculative memory bypassing) opportunities.
    """
    b = ProgramBuilder(name=f"save_restore_{depth}x{iterations}")
    b.label("main")
    b.li("s0", 0)
    b.li("s1", iterations)
    b.label("loop")
    b.mov("a0", "s1")
    b.bsr("level0")
    b.rr("addq", "s0", "s0", "v0")
    b.ri("subqi", "s1", "s1", 1)
    b.cbr("bgt", "s1", "loop")
    _exit_with(b, "s0")

    for level in range(depth):
        b.label(f"level{level}")
        b.lda("sp", -32, "sp")
        b.stq("ra", 0, "sp")
        b.stq("s2", 8, "sp")
        b.stq("s3", 16, "sp")
        b.ri("addqi", "s2", "a0", level)
        b.ri("addqi", "s3", "a0", 2 * level)
        if level + 1 < depth:
            b.bsr(f"level{level + 1}")
            b.rr("addq", "v0", "v0", "s2")
            b.rr("addq", "v0", "v0", "s3")
        else:
            b.rr("addq", "v0", "s2", "s3")
        b.ldq("s3", 16, "sp")
        b.ldq("s2", 8, "sp")
        b.ldq("ra", 0, "sp")
        b.lda("sp", 32, "sp")
        b.ret()
    return b.build(entry="main")


def matrix_smooth(size: int = 8, passes: int = 4) -> Program:
    """A small floating-point stencil over a ``size`` x ``size`` matrix.

    Provides the FP component of the instruction-type breakdown (the
    ``eon``/``twolf``-like behaviour).
    """
    b = ProgramBuilder(name=f"matrix_smooth_{size}x{passes}")
    row_bytes = size * 8
    b.label("main")
    b.li("gp", GLOBAL_BASE)
    # Initialise matrix[i][j] = i + j (integer stores, loaded as FP bits via
    # itoft after loading -- we keep values integral so results are exact).
    b.li("t0", 0)
    b.li("t5", size * size)
    b.mov("t2", "gp")
    b.label("init")
    b.stq("t0", 0, "t2")
    b.ri("addqi", "t2", "t2", 8)
    b.ri("addqi", "t0", "t0", 1)
    b.rr("cmplt", "t3", "t0", "t5")
    b.cbr("bne", "t3", "init")
    # Smoothing passes: cell += neighbour; accumulate a checksum.
    b.li("s0", 0)
    b.li("s1", passes)
    b.label("pass")
    b.li("t0", 1)
    b.label("cell")
    b.rr("sll", "t2", "t0", "zero")      # t2 = t0 (cheap copy through ALU)
    b.ri("slli", "t2", "t0", 3)
    b.rr("addq", "t2", "t2", "gp")
    b.ldq("t3", 0, "t2")
    b.ldq("t4", -8, "t2")
    b.rr("itoft", "f1", "t3", "zero")
    b.rr("itoft", "f2", "t4", "zero")
    b.rr("addt", "f3", "f1", "f2")
    b.rr("mult", "f3", "f3", "f2")
    b.rr("ftoit", "t3", "f3", "zero")
    b.rr("addq", "s0", "s0", "t3")
    b.ri("addqi", "t0", "t0", 1)
    b.ri("cmplti", "t3", "t0", size * size)
    b.cbr("bne", "t3", "cell")
    b.ri("subqi", "s1", "s1", 1)
    b.cbr("bgt", "s1", "pass")
    b.ri("andi", "s0", "s0", 0xFFFF)
    _exit_with(b, "s0")
    return b.build(entry="main")
