#!/usr/bin/env python3
"""Tour of the command line tool on the d4/e8 worked examples.

Each section echoes the command it runs, so the output doubles as a crib
sheet: the three-step reversal with its grid, the e8 cube check, a
seven-move derivation replayed and then re-proved by reversing, and the
translation product identities.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from monorev.cli import main as monorev  # noqa: E402
from monorev.derivation import t_expression, verify_translation_product  # noqa: E402


def run(*argv: str, shown: str | None = None) -> None:
    print(f"$ monorev {shown or ' '.join(argv)}")
    code = monorev(list(argv))
    if code != 0:
        sys.exit(f"exit code {code} from: {' '.join(argv)}")
    print()


def main() -> int:
    print("== a reversal that climbs through t(2) ==\n")
    run("reverse", "d4:new", "t(2)^-1 s3 s3")
    run("render", "d4:new", "t(2)^-1 s3 s3")

    print("== the cube condition behind e8 completeness ==\n")
    run("cube", "e8:new", "s7", "t(2)", "s8")

    print("== double twist commutes with s1, three ways ==\n")
    run("derive", str(ROOT / "tests" / "fixtures" / "double_twist_s1.script"),
        shown="derive double_twist.script")
    run("quotient", "d4:new", "t(1) t(0) s1 t(1) t(0) s1", "s1 t(1) t(0) s1 t(1) t(0)")
    run("oracle", "equal", "d4:new", "--window", "2",
        "t(1) t(0) s1 t(1) t(0) s1", "s1 t(1) t(0) s1 t(1) t(0)")

    print("== translation products collapse in the twist subgroup ==\n")
    for i in range(-3, 5):
        ok = verify_translation_product(i)
        print(f"t({i}) t({i - 1}) = t(1) t(0)   "
              f"[t({i}) = {t_expression(i)}]   {'ok' if ok else 'FAILED'}")
    return 0 if all(verify_translation_product(i) for i in range(-3, 5)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
