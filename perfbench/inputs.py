"""Seeded input generation: the only place a workload's inputs come from.

Every function here is a pure function of its ``seed`` argument, so the
same seed gives byte-identical programs, stdin, trial plans and op orders.
The program under test receives only what these functions produce.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

#: Small benign MiniC programs served as ``run`` jobs (about 5k-50k
#: retired instructions each).  Input bytes are used only as data, never
#: as addresses, so the paper policy raises no alert on any of them.  A
#: served reply carries no stdout, so each program also returns a value
#: derived from what it prints as its exit status.
SERVE_PROGRAMS: Tuple[Tuple[str, str], ...] = (
    ("checksum", r"""
char buf[256];
int main(void) {
    int n;
    int i;
    int round;
    int h;
    n = read(0, buf, 256);
    h = 5381;
    for (round = 0; round < 12; round++) {
        for (i = 0; i < n; i++) {
            h = (h * 33 + buf[i]) & 16777215;
        }
    }
    printf("checksum n=%d h=%d\n", n, h);
    return h % 100;
}
"""),
    ("wordcount", r"""
char buf[256];
int main(void) {
    int n;
    int i;
    int words;
    int lines;
    int inword;
    int pass;
    n = read(0, buf, 256);
    for (pass = 0; pass < 6; pass++) {
        words = 0;
        lines = 0;
        inword = 0;
        for (i = 0; i < n; i++) {
            if (buf[i] == 10) {
                lines++;
            }
            if (buf[i] == 32 || buf[i] == 10) {
                inword = 0;
            } else if (inword == 0) {
                inword = 1;
                words++;
            }
        }
    }
    printf("wc n=%d words=%d lines=%d\n", n, words, lines);
    return words;
}
"""),
    ("sort", r"""
char buf[64];
int vals[64];
int main(void) {
    int n;
    int i;
    int j;
    int key;
    int sum;
    n = read(0, buf, 60);
    for (i = 0; i < n; i++) {
        vals[i] = buf[i];
    }
    for (i = 1; i < n; i++) {
        key = vals[i];
        j = i - 1;
        while (j >= 0 && vals[j] > key) {
            vals[j + 1] = vals[j];
            j--;
        }
        vals[j + 1] = key;
    }
    sum = 0;
    for (i = 0; i < n; i++) {
        sum = sum + vals[i] * (i + 1);
    }
    printf("sort n=%d min=%d max=%d w=%d\n", n, vals[0], vals[n - 1], sum);
    return sum % 100;
}
"""),
    ("collatz", r"""
char buf[64];
int steps(int x) {
    int s;
    s = 0;
    while (x != 1) {
        if (x % 2 == 0) {
            x = x / 2;
        } else {
            x = 3 * x + 1;
        }
        s++;
    }
    return s;
}
int main(void) {
    int n;
    int i;
    int total;
    n = read(0, buf, 48);
    total = 0;
    for (i = 0; i < n; i++) {
        total = total + steps(buf[i] + 27);
    }
    printf("collatz n=%d steps=%d\n", n, total);
    return total % 100;
}
"""),
    ("reverse", r"""
char buf[256];
char rev[256];
int main(void) {
    int n;
    int i;
    int round;
    int same;
    n = read(0, buf, 255);
    for (round = 0; round < 8; round++) {
        for (i = 0; i < n; i++) {
            rev[n - 1 - i] = buf[i];
        }
    }
    rev[n] = 0;
    same = 0;
    for (i = 0; i < n; i++) {
        if (rev[i] == buf[i]) {
            same++;
        }
    }
    printf("reverse n=%d same=%d first=%d\n", n, same, rev[0]);
    return same;
}
"""),
    ("primes", r"""
char buf[16];
int main(void) {
    int n;
    int limit;
    int p;
    int d;
    int count;
    int prime;
    n = read(0, buf, 16);
    limit = 300 + n * 10;
    count = 0;
    for (p = 2; p < limit; p++) {
        prime = 1;
        for (d = 2; d * d <= p; d++) {
            if (p % d == 0) {
                prime = 0;
                break;
            }
        }
        count = count + prime;
    }
    printf("primes below %d: %d\n", limit, count);
    return count % 100;
}
"""),
)

#: Distinct stdin payloads per served program: jobs are drawn from the
#: ``len(SERVE_PROGRAMS) * SERVE_STDIN_VARIANTS`` distinct jobs, so the
#: correctness check needs one in-process reference run per distinct job.
SERVE_STDIN_VARIANTS = 4

_ALPHABET = b"abcdefghijklmnopqrstuvwxyz      \nABCDEFGHIJ0123456789"


#: Every payload has the same length, so the seed changes what a job
#: computes but barely how much.
STDIN_BYTES = 80


def _stdin_bytes(rng: random.Random) -> bytes:
    return bytes(rng.choice(_ALPHABET) for _ in range(STDIN_BYTES))


def serve_jobs(seed: int) -> List[Tuple[str, str, bytes]]:
    """The distinct served jobs: ``(program name, source, stdin)``."""
    rng = random.Random(f"serve-jobs:{seed}")
    return [
        (name, source, _stdin_bytes(rng))
        for name, source in SERVE_PROGRAMS
        for _ in range(SERVE_STDIN_VARIANTS)
    ]


def serve_sequence(seed: int, count: int, pool_size: int) -> List[int]:
    """Which distinct job the i-th request sends (indices into the pool):
    seeded permutations of the whole pool back to back, so any run sends
    every job about equally often."""
    rng = random.Random(f"serve-seq:{seed}")
    sequence: List[int] = []
    while len(sequence) < count:
        block = list(range(pool_size))
        rng.shuffle(block)
        sequence.extend(block)
    return sequence[:count]


def campaign_round_seed(seed: int, round_index: int) -> int:
    """Campaign seed of the ``round_index``-th plan of a run."""
    return random.Random(f"campaign:{seed}:{round_index}").randrange(1 << 30)


def spec_order(seed: int, names: Sequence[str]) -> List[Tuple[str, int]]:
    """One pass over every ``(program, opt level)`` pair, in seeded order."""
    pairs = [(name, level) for name in names for level in (0, 1)]
    random.Random(f"spec:{seed}").shuffle(pairs)
    return pairs


def matrix_pass(
    seed: int, pass_index: int, scenarios: Sequence[str], modes: Sequence[str]
) -> List[Tuple[str, str, int]]:
    """One pass over every ``(scenario, mode)`` cell with its opt level.

    The seed draws each cell's opt level for even passes; odd passes flip
    it, so two consecutive passes cover every (scenario, mode, level)
    combination once.  The cell order is shuffled per pass.
    """
    levels = random.Random(f"matrix-levels:{seed}")
    cells = []
    for scenario in scenarios:
        for mode in modes:
            level = levels.randrange(2)
            cells.append((scenario, mode, level ^ (pass_index & 1)))
    random.Random(f"matrix-order:{seed}:{pass_index}").shuffle(cells)
    return cells
