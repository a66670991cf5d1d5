"""Differential tests: MiniC vs. Python semantics, pipeline vs. functional.

Hypothesis generates random arithmetic programs; the compiled result on the
simulated machine must match a C-semantics evaluation done in Python, and
the pipeline engine must agree with the functional engine instruction for
instruction.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator
from repro.isa.assembler import assemble
from repro.kernel.syscalls import Kernel
from repro.libc.build import build_program

_MASK32 = 0xFFFFFFFF


def _signed32(value):
    value &= _MASK32
    return value - 0x100000000 if value & 0x80000000 else value


# ---------------------------------------------------------------------------
# Random expression ASTs (value, C source) built bottom-up so the expected
# value is computed alongside the text.
# ---------------------------------------------------------------------------

def _combine(op, left, right):
    lv, ls = left
    rv, rs = right
    lv, rv = _signed32(lv), _signed32(rv)
    if op == "+":
        value = lv + rv
    elif op == "-":
        value = lv - rv
    elif op == "*":
        value = lv * rv
    elif op == "/":
        if rv == 0:
            return left  # skip division by zero: reuse left subtree
        value = int(lv / rv)  # C truncation
    elif op == "%":
        if rv == 0:
            return left
        value = lv - int(lv / rv) * rv
    elif op == "&":
        value = lv & rv
    elif op == "|":
        value = lv | rv
    elif op == "^":
        value = lv ^ rv
    elif op == "<":
        value = 1 if lv < rv else 0
    elif op == ">":
        value = 1 if lv > rv else 0
    elif op == "==":
        value = 1 if lv == rv else 0
    else:
        raise AssertionError(op)
    return value & _MASK32, f"({ls} {op} {rs})"


_leaf = st.integers(-1000, 1000).map(lambda n: (n & _MASK32, f"({n})"))

_exprs = st.recursive(
    _leaf,
    lambda children: st.tuples(
        st.sampled_from("+-*/%&|^<>") | st.just("=="),
        children,
        children,
    ).map(lambda t: _combine(*t)),
    max_leaves=12,
)


class TestCompilerDifferential:
    @given(_exprs)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_expression_matches_c_semantics(self, expr):
        value, source = expr
        result = run_minic(
            'int main(void) { printf("%d", ' + source + "); return 0; }"
        )
        assert result.outcome == "exit", result.describe()
        assert result.stdout == str(_signed32(value))

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=8))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_array_sum_matches(self, values):
        assigns = "".join(
            f"a[{i}] = {v};" for i, v in enumerate(values)
        )
        result = run_minic(
            "int main(void) { int a[8]; int i; int s;"
            + assigns +
            f"s = 0; for (i = 0; i < {len(values)}; i++) {{ s += a[i]; }}"
            "printf(\"%d\", s); return 0; }"
        )
        assert result.stdout == str(sum(values))

    @given(st.integers(0, 12))
    @settings(max_examples=8, deadline=None)
    def test_recursion_matches(self, n):
        expected = 1
        for i in range(2, n + 1):
            expected *= i
        result = run_minic(
            "int fact(int n) { if (n < 2) { return 1; }"
            " return n * fact(n - 1); }"
            f"int main(void) {{ printf(\"%d\", fact({n})); return 0; }}"
        )
        assert result.stdout == str(_signed32(expected))


class TestPipelineDifferential:
    def _run_both(self, source, stdin=b""):
        exe = build_program(source)
        outcomes = []
        for pipelined in (False, True):
            kernel = Kernel(stdin=stdin)
            sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
            kernel.attach(sim)
            if pipelined:
                status = Pipeline(sim).run()
            else:
                status = sim.run()
            outcomes.append((status, kernel.process.stdout_text,
                             sim.stats.instructions))
        return outcomes

    @given(st.integers(0, 50), st.integers(1, 9))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pipeline_agrees_with_functional(self, n, step):
        source = (
            "int main(void) { int i; int s; s = 0;"
            f"for (i = 0; i < {n}; i += {step}) {{ s += i; }}"
            "printf(\"%d\", s); return s & 127; }"
        )
        functional, pipelined = self._run_both(source)
        assert functional == pipelined

    def test_pipeline_agrees_on_string_program(self):
        source = (
            "int main(void) { char buf[64]; gets(buf);"
            " printf(\"len=%d [%s]\", strlen(buf), buf); return 0; }"
        )
        functional, pipelined = self._run_both(source, stdin=b"pipeline!\n")
        assert functional == pipelined
        assert "len=9" in functional[1]
