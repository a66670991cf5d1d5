"""-O0 vs -O1 differential: the optimizer must never change a verdict.

Three corpora drive the comparison:

* every synthetic and real-world attack scenario (attack + benign runs),
* the Table-3 SPEC-shaped workloads (benign, instruction-count sensitive),
* a seeded fuzz corpus of small random MiniC programs, checked on both
  the functional and the pipelined execution engine.

The observable contract is (outcome, detected, exit_status, stdout);
alert *pcs* legitimately differ because -O1 emits different code.
The PAC site contract is stricter: every function must keep the same
number of sign and auth sites at both levels, or the comparator defense
would silently lose coverage under the optimizer.
"""

import random
import re
from collections import Counter

import pytest

from repro.apps.spec import SPEC_WORKLOADS
from repro.apps.synthetic import exp1_scenario
from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy
from repro.evalx.experiments import all_attack_scenarios
from repro.libc.build import build_program

_SCENARIOS = {s.name: s for s in all_attack_scenarios()}
_WORKLOADS = {w.name: w for w in SPEC_WORKLOADS}


def _verdict(result):
    return (
        result.outcome,
        result.detected,
        result.exit_status,
        result.stdout,
    )


class TestScenarioVerdicts:
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_attack_verdict_identical(self, name):
        scenario = _SCENARIOS[name]
        r0 = scenario.run_attack(PointerTaintPolicy(), opt_level=0)
        r1 = scenario.run_attack(PointerTaintPolicy(), opt_level=1)
        assert _verdict(r0) == _verdict(r1)
        if r0.alert is not None:
            assert r1.alert.kind == r0.alert.kind

    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_benign_verdict_identical(self, name):
        scenario = _SCENARIOS[name]
        if not scenario.benign_input:
            pytest.skip("scenario has no benign input")
        r0 = scenario.run_benign(PointerTaintPolicy(), opt_level=0)
        r1 = scenario.run_benign(PointerTaintPolicy(), opt_level=1)
        assert _verdict(r0) == _verdict(r1)


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name", sorted(_WORKLOADS))
    def test_output_identical_and_fewer_instructions(self, name):
        workload = _WORKLOADS[name]
        stdin = workload.make_input()
        r0 = run_minic(
            workload.source, PointerTaintPolicy(), stdin=stdin, opt_level=0
        )
        r1 = run_minic(
            workload.source, PointerTaintPolicy(), stdin=stdin, opt_level=1
        )
        assert _verdict(r0) == _verdict(r1)
        assert r0.outcome == "exit"
        assert r1.sim.stats.alerts == 0
        assert r1.sim.stats.tainted_dereferences == 0
        # The optimizer must actually optimize: measurably fewer dynamic
        # instructions on every workload (the CI benchmark pins >= 20%).
        assert r1.sim.stats.instructions < r0.sim.stats.instructions


# --- seeded fuzz corpus --------------------------------------------------

_FUZZ_OPS = ("+", "-", "*", "&", "|", "^")
_FUZZ_CMPS = ("<", ">", "<=", ">=", "==", "!=")


class _ProgramGen:
    """Deterministic random MiniC programs exercising the optimizer.

    Programs mix untainted locals, stdin-derived (tainted) values,
    loops over untainted counters, a stack array indexed by masked
    counters, and expressions shaped to trip every pass: foldable
    constant subtrees, `<< 0`-style identities, `/ 1` and `* 1` (which
    must NOT fold), and comparisons (which untaint).
    """

    #: One loop induction variable per nesting depth, so an inner loop
    #: never resets an outer loop's counter.
    COUNTERS = ("i", "j")

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.vars = ["a", "b", "c", "d"]

    def const(self) -> str:
        return str(self.rng.randint(-20, 20))

    def expr(self, depth: int = 0) -> str:
        roll = self.rng.random()
        if depth >= 3 or roll < 0.3:
            if self.rng.random() < 0.5:
                return self.rng.choice(self.vars)
            return self.const()
        if roll < 0.75:
            op = self.rng.choice(_FUZZ_OPS)
            return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"
        if roll < 0.85:
            op = self.rng.choice(_FUZZ_CMPS)
            return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"
        if roll < 0.92:  # constant shift (includes the foldable << 0)
            return f"({self.expr(depth + 1)} << {self.rng.randint(0, 7)})" \
                if self.rng.random() < 0.5 \
                else f"({self.expr(depth + 1)} >> {self.rng.randint(0, 7)})"
        # nonzero constant divisor (includes the must-not-fold / 1)
        op = self.rng.choice(("/", "%"))
        return f"({self.expr(depth + 1)} {op} {self.rng.randint(1, 9)})"

    def statement(self, depth: int = 0) -> str:
        roll = self.rng.random()
        var = self.rng.choice(self.vars)
        if roll < 0.45 or depth >= 2:
            op = self.rng.choice(("=", "+=", "-=", "*=", "&=", "|=", "^="))
            return f"{var} {op} {self.expr()};"
        if roll < 0.6:
            body = self.statement(depth + 1)
            alt = self.statement(depth + 1)
            cond = f"{self.expr()} {self.rng.choice(_FUZZ_CMPS)} {self.expr()}"
            return f"if ({cond}) {{ {body} }} else {{ {alt} }}"
        if roll < 0.75:
            body = self.statement(depth + 1)
            bound = self.rng.randint(1, 6)
            k = self.COUNTERS[depth]
            return (
                f"{k} = 0; while ({k} < {bound}) {{ {body} {k} = {k} + 1; }}"
            )
        if roll < 0.9:
            idx = f"(i + {self.rng.randint(0, 7)}) & 7"
            return f"arr[{idx}] = {self.expr()}; {var} += arr[i & 7];"
        return f"{var} = {var} * 1 + ({self.expr()} / 1);"

    def program(self) -> str:
        body = "\n  ".join(self.statement() for _ in range(6))
        return (
            "int main() {\n"
            "  int arr[8];\n"
            "  char inbuf[8];\n"
            "  int i; int j; int a; int b; int c; int d;\n"
            "  read(0, inbuf, 8);\n"
            f"  a = {self.const()}; b = {self.const()};\n"
            "  c = inbuf[0]; d = inbuf[1];\n"
            "  i = 0; while (i < 8) { arr[i] = i * 3; i = i + 1; }\n"
            "  i = 0;\n"
            f"  {body}\n"
            '  printf("%d %d %d %d\\n", a, b, c, d);\n'
            "  return (a ^ b ^ c ^ d) & 127;\n"
            "}\n"
        )


def _fuzz_cases(count: int = 25, seed: int = 1105):
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        gen = _ProgramGen(rng)
        stdin = bytes(rng.randrange(256) for _ in range(8))
        cases.append(pytest.param(gen.program(), stdin, id=f"prog{index:02d}"))
    return cases


#: Instruction budget for every fuzz leg.  Generated programs retire
#: under 3k instructions at -O0, so only a non-terminating program can
#: exhaust it -- and then cheaply, even on the pipeline engine.
_FUZZ_BUDGET = 50_000

#: Deliberately non-terminating: the inner loop resets the outer loop's
#: counter, so every leg must end in the same ``limit`` verdict.
_RUNAWAY = r"""
int main() {
  char inbuf[8];
  int i; int a;
  read(0, inbuf, 8);
  a = inbuf[0];
  i = 0;
  while (i < 6) { i = 0; while (i < 3) { a += i; i = i + 1; } i = i + 1; }
  printf("%d\n", a);
  return a & 127;
}
"""


def _fuzz_verdicts(source: str, stdin: bytes):
    """(-O0, -O1, -O1 pipeline) verdicts under the fuzz budget."""
    return [
        _verdict(
            run_minic(
                source,
                PointerTaintPolicy(),
                stdin=stdin,
                opt_level=opt_level,
                use_pipeline=pipeline,
                max_instructions=_FUZZ_BUDGET,
            )
        )
        for opt_level, pipeline in ((0, False), (1, False), (1, True))
    ]


class TestFuzzDifferential:
    @pytest.mark.parametrize("source,stdin", _fuzz_cases())
    def test_same_observables_both_levels_both_engines(self, source, stdin):
        r0, r1, r1p = _fuzz_verdicts(source, stdin)
        assert r0 == r1, source
        assert r1p == r0, source
        assert r0[0] == "exit", source

    def test_runaway_program_hits_the_limit_on_every_leg(self):
        verdicts = _fuzz_verdicts(_RUNAWAY, b"ABCDEFGH")
        assert verdicts[0][0] == "limit"
        assert verdicts == [verdicts[0]] * 3

    def test_corpus_is_deterministic(self):
        first = [str(p.values[0]) for p in _fuzz_cases(5)]
        second = [str(p.values[0]) for p in _fuzz_cases(5)]
        assert first == second


# --- PAC sign/auth site preservation ------------------------------------

_PAC_SITE_RE = re.compile(r"^\.L.*pac_(sign|auth)_(.+)_\d+$")


def _pac_profile(executable) -> Counter:
    """Per-function (name, sign|auth) site counts from the symbol table."""
    profile: Counter = Counter()
    for name in executable.symbols:
        match = _PAC_SITE_RE.match(name)
        if match is not None:
            profile[(match.group(2), match.group(1))] += 1
    return profile


class TestPacSitePreservation:
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_every_function_keeps_its_sites(self, name):
        scenario = _SCENARIOS[name]
        p0 = _pac_profile(scenario.build(opt_level=0))
        p1 = _pac_profile(scenario.build(opt_level=1))
        assert p0 == p1
        assert p0  # the libc alone guarantees instrumented functions

    def test_sign_auth_paired_per_function(self):
        exe = build_program("int main() { return 0; }", opt_level=1)
        profile = _pac_profile(exe)
        functions = {func for func, _ in profile}
        for func in functions:
            assert profile[(func, "sign")] == profile[(func, "auth")] == 1

    def test_pac_detector_catches_smash_under_optimizer(self):
        result = exp1_scenario().run_attack(None, defense="pac", opt_level=1)
        assert result.detected
        assert result.alert.kind == "pac"
