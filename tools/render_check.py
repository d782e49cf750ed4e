"""Check the CLI's table renderer against Python's own '%.16e', cell by cell.

Renders, through the renderer that `hpheat.cli.write_table` uses, one
column of each of these sets of doubles and compares every line with
`'%.16e' % x`:

- random 64-bit patterns viewed as doubles (any sign, exponent, mantissa,
  so subnormals, infinities and NaN payloads too), in chunks;
- log-uniform reals of either sign between 1e-30 and 1e30, the range
  of ordinary table values;
- every power of ten from 1e-323 to 1e308 and the four doubles on each side
  of it, where the decimal exponent taken from log10 can be off by one;
- every power of two from 2**-1074 to 2**1023 and the two doubles on each
  side of it, among them exact 17th-digit ties (2**-25, 2**50 + 0.25).

It prints, per set, the cells compared, the mismatches and the share of
cells that went to the exact fallback, and exits 1 on any mismatch.  Run it
from anywhere as

    python tools/render_check.py [--cells N] [--seed S]

The default 10**7 random patterns take about 25 s on one core.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpheat import cli  # noqa: E402

CHUNK = 1 << 18


def neighbours(x: np.ndarray, count: int) -> np.ndarray:
    """x and the count doubles on each side of each entry."""
    out, down, up = [x], x, x
    for _ in range(count):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def compare(x: np.ndarray) -> tuple[int, int]:
    """Mismatched lines and fallback cells of the rendering of x."""
    fallbacks = 0
    exact = cli._exact

    def counted(value: float) -> str:
        nonlocal fallbacks
        fallbacks += 1
        return exact(value)

    cli._exact = counted
    try:
        got = cli._render(x[:, None], None, " ")
    finally:
        cli._exact = exact
    want = ("%.16e\n" * len(x)) % tuple(x.tolist())
    if got == want:
        return 0, fallbacks
    return sum(a != b for a, b in zip(got.splitlines(), want.splitlines())), fallbacks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=10**7, help="random bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)

    def random_bits(size):
        return rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)

    def ordinary(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-30.0, 30.0, size)

    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # Each set as a sequence of chunks, drawn as they are compared.
    sets = [
        ("random bit patterns",
         (random_bits(min(CHUNK, args.cells - i)) for i in range(0, args.cells, CHUNK))),
        ("log-uniform reals, 1e-30..1e30", (ordinary(CHUNK) for _ in range(4))),
        ("powers of ten +- 4 ulps", [neighbours(powers, 4)]),
        ("powers of two +- 2 ulps", [neighbours(2.0 ** np.arange(-1074, 1024), 2)]),
    ]
    failed = False
    for name, chunks in sets:
        cells = mismatches = fallbacks = 0
        for x in chunks:
            m, f = compare(x)
            cells += len(x)
            mismatches += m
            fallbacks += f
        failed |= mismatches > 0
        print(
            f"{name}: {cells} cells, {mismatches} mismatches, "
            f"fallback share {fallbacks / cells:.3%} ({fallbacks} cells)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
