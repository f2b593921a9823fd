"""Count the correct, flagged and silently wrong builds of the sampled family.

    python3 tools/family.py [--src DIR]

The family (ROADMAP item 17) is q(y) = s sum_{j=1..4} (a_j cos jy + b_j
sin jy) with a, b = ``default_rng(seed).standard_normal((2, 4))``, p = r = 1,
Dirichlet conditions on [0, pi], m = 2001 and the automatic N; s sets the
largest |q| on the grid.  This runs sup|q| = 1, 3, 10, 30 and 100 on seeds
0-9, and prints one table row per amplitude: how many builds are correct,
flagged (a warning or an exception), silently wrong in their indices only,
or silently wrong in their values, and the Newton evaluations their
searches took.  The family and its classification are those of
``tests/test_hard_inputs.py``, whose tier-1 test runs sup|q| = 3, 10 and 30
on seeds 0-5.  Point ``--src`` at another checkout's ``src/`` to count its
package.

Only p = r = 1 is run: problems with p or r not 1 wait for an oracle of
their own (ROADMAP item 15's finite-difference oracle), since the
sine-Galerkin oracle takes p = r = 1.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AMPLITUDES = (1.0, 3.0, 10.0, 30.0, 100.0)
SEEDS = range(10)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the nsbf package "
                        "(default: this checkout's src/)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]
    import nsbf
    from test_hard_inputs import OUTCOMES, family_outcome, family_q

    expected = args.src.resolve() / "nsbf"
    if Path(nsbf.__file__).resolve().parent != expected:
        sys.exit(f"nsbf was imported from {nsbf.__file__}, not {expected}")
    print("| sup|q| | " + " | ".join(OUTCOMES) + " | evaluations |")
    print("|---" * (len(OUTCOMES) + 2) + "|")
    totals = [0] * (len(OUTCOMES) + 1)
    for amplitude in AMPLITUDES:
        runs = [family_outcome(family_q(amplitude, seed)) for seed in SEEDS]
        row = [sum(o == name for o, _ in runs) for name in OUTCOMES]
        row.append(sum(n for _, n in runs))
        totals = [t + r for t, r in zip(totals, row)]
        print(f"| {amplitude:g} | " + " | ".join(map(str, row)) + " |")
    print("| all | " + " | ".join(map(str, totals)) + " |")


if __name__ == "__main__":
    main()
