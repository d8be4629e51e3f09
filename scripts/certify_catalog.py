#!/usr/bin/env python3
"""Certify every built-in presentation and write the certificates to disk.

Runs the cube-condition sweep over each catalog entry (parametric families
at a few small ranks), prints a one-line verdict per key, and drops the
JSON certificates into the output directory.  Refusals are expected for
the :yamada entries: they are not right-complemented, and the point of
the batch run is to keep that split visible.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from monorev import DEFAULT_FUEL, catalog  # noqa: E402
from monorev.cli import _at_least  # noqa: E402
from monorev.completeness import certify  # noqa: E402

FIXED = list(catalog.FIXED_NAMES)
PARAMETRIC_RANKS = (3, 4)


def default_keys() -> list[str]:
    keys = list(FIXED)
    for name in catalog.PARAMETRIC_NAMES:
        keys.extend(name.replace("<n>", str(n)) for n in PARAMETRIC_RANKS)
    return keys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-bound", type=_at_least(0), default=3, dest="t_bound")
    ap.add_argument("--fuel", type=_at_least(0), default=DEFAULT_FUEL)
    ap.add_argument("--out", type=Path, default=Path("certificates"))
    ap.add_argument("keys", nargs="*", help="catalog keys (default: the whole catalog)")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for key in args.keys or default_keys():
        cert = certify(catalog.load(key), t_bound=args.t_bound, fuel=args.fuel)
        path = args.out / (key.replace(":", "_") + ".json")
        path.write_text(cert.to_json() + "\n", encoding="utf-8")
        note = f" ({cert.refusal})" if cert.refusal else ""
        print(f"{key:24} {cert.claim}{note}")
        if cert.failures:  # refusals are informative, not errors here
            worst = 1
    print(f"certificates written to {args.out}/", file=sys.stderr)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
