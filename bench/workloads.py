"""The benchmark's three workloads.

Each workload turns a seed into an endless sequence of passes (lists of
operations), runs one operation against monorev's public API, and checks the
result against a reference that does not come from the reverser.  An
operation is what one user request costs: one certificate, one quotient
query, or one oracle call.

Every pass starts from presentations built afresh, so the complement cache
is empty as it is in a new `monorev` process; `catalog.load` would otherwise
hand back a cached presentation with a warm cache.

Module attributes are looked up at call time (``completeness.certify``, not
a name imported once), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from monorev import catalog, completeness, derivation, oracle, presentation, reversing

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

NEW_KEYS = ("d4:new", "e6:new", "e7:new", "e8:new")
YAMADA_KEYS = ("d4:yamada", "e6:yamada", "e7:yamada", "e8:yamada")
RANKS = {"d4": 4, "e6": 6, "e7": 7, "e8": 8}

# The 200 quotient pairs of test_reversal_oracle_agreement are drawn from
# random.Random(QUOTIENT_BASE_SEED) over the generators of the d4:new window
# of radius 2, in this (sorted) order.
QUOTIENT_BASE_SEED = 20260823
QUOTIENT_PAIRS = 200
QUOTIENT_TOKENS = ("s1", "s2", "s3", "s4", "t(-2)", "t(-1)", "t(0)", "t(1)", "t(2)")
QUOTIENT_MAX_SHIFT = 2
# A pass runs every eighth of them, from the fifth on: 25 pairs, 10 of which
# run out of fuel (83 of the 200 do), so that a run repeats each pair often.
QUOTIENT_STRIDE = 8
QUOTIENT_OFFSET = 4

DOUBLE_TWIST = "t(1) t(0) s1 t(1) t(0) s1"
DOUBLE_TWIST_CLASS = 50
SCAN_WORDS = sum(9 ** length for length in (2, 3, 4))  # 9 generators in the window


def fresh(key: str):
    """Build a catalog presentation anew, with an empty complement cache."""
    clear = getattr(catalog.load, "cache_clear", None)
    if clear is not None:
        clear()
    return catalog.load(key)


def elliptic_triples(rank: int, t_bound: int) -> int:
    """Generator triples the bounded cube check covers, counted directly.

    Triples over the s-generators and t(0..2B) that mention no t, or whose
    smallest t index is 0: all triples minus those avoiding t(0), plus the
    pure-s triples removed with them.
    """
    width = 2 * t_bound + 1
    return (rank + width) ** 3 - (rank + width - 1) ** 3 + rank ** 3


_PAIR_RE = re.compile(r"\((s\d+), (t\(-?\d+\))\)|\((t\(-?\d+\)), (s\d+)\)")


class CertifyElliptic:
    """certify on the elliptic :new keys at t_bound 3 and 6, and the refused :yamada keys."""

    name = "certify-elliptic"
    setup = "[catalog.load(k) for k in %r]" % (NEW_KEYS + YAMADA_KEYS,)
    # With 12 operations a pass, p80 lies between the third- and the
    # fourth-slowest certificate; five passes give it twelve samples beyond.
    tail = 80

    def passes(self, seed: int):
        rng = random.Random(seed)
        ops = [("certify", key, bound) for key in NEW_KEYS for bound in (3, 6)]
        ops += [("certify", key, 3) for key in YAMADA_KEYS]
        while True:
            batch = list(ops)
            rng.shuffle(batch)
            yield batch

    def new_pass(self) -> dict:
        return {}

    def execute(self, op, ctx):
        _, key, bound = op
        return completeness.certify(fresh(key), t_bound=bound, goal="cancellative")

    def summarize(self, op, cert):
        return cert

    def decided(self, op, cert) -> bool:
        return cert.claim != "undetermined"

    def counts(self, op, cert) -> dict:
        sides = 2 if cert.claim in ("cancellative-up-to", "complete-up-to") else 1
        checks = 0 if cert.claim == "refused" else sides * cert.triples_checked
        return {"completeness.triples": cert.triples_checked,
                "completeness.cube_checks": checks}

    def check(self, op, cert) -> str | None:
        _, key, bound = op
        if key in YAMADA_KEYS:
            if cert.claim != "refused" or not _PAIR_RE.search(cert.refusal or ""):
                return f"{key}: expected a refusal naming an (s, t) pair, got {cert.claim}"
            return None
        want = elliptic_triples(RANKS[key.split(":")[0]], bound)
        if cert.claim != "cancellative-up-to" or cert.failures or cert.refusal is not None:
            return f"{key} t_bound {bound}: expected cancellative-up-to, got {cert.claim}"
        if cert.triples_checked != want:
            return f"{key} t_bound {bound}: {cert.triples_checked} triples, expected {want}"
        return None


def quotient_base_pairs() -> list[tuple[str, str]]:
    """The pairs of test_reversal_oracle_agreement, as text."""
    rng = random.Random(QUOTIENT_BASE_SEED)

    def word() -> str:
        return " ".join(rng.choice(QUOTIENT_TOKENS) for _ in range(rng.randint(1, 4)))

    return [(word(), word()) for _ in range(QUOTIENT_PAIRS)]


_TOKEN_RE = re.compile(r"s(\d)|t\((-?\d+)\)")


def relabel(text: str, perm: dict[int, int], shift: int) -> str:
    """Apply an automorphism of d4:new: permute s1..s4, translate t(i)."""

    def sub(m: re.Match) -> str:
        if m.group(1) is not None:
            return f"s{perm[int(m.group(1))]}"
        return f"t({int(m.group(2)) + shift})"

    return _TOKEN_RE.sub(sub, text)


class QuotientRandom:
    """reverse_quotient(u, v) on d4:new at the default fuel, words parsed from text.

    The seed picks an automorphism of d4:new (a permutation of s1..s4 and a
    translation of the t indices) and applies it to 25 of the 200 random
    pairs of the agreement test.  Every seed therefore runs different words
    with the same outcomes and step counts: freshly drawn pairs would change
    the share of pairs that run out of fuel, and with it every timing, from
    seed to seed.
    """

    name = "quotient-random"
    setup = "catalog.load('d4:new')"
    tail = 80  # among the 10 of 25 pairs that run out of fuel

    def __init__(self) -> None:
        self._windows: dict[int, object] = {}
        self._verdicts: dict[tuple[str, str], bool] = {}

    def pairs(self, seed: int) -> list[tuple[str, str]]:
        rng = random.Random(seed)
        perm = dict(zip((1, 2, 3, 4), rng.sample((1, 2, 3, 4), 4)))
        shift = rng.randint(-QUOTIENT_MAX_SHIFT, QUOTIENT_MAX_SHIFT)
        chosen = quotient_base_pairs()[QUOTIENT_OFFSET::QUOTIENT_STRIDE]
        return [(relabel(u, perm, shift), relabel(v, perm, shift)) for u, v in chosen]

    def passes(self, seed: int):
        batch = [("quotient", u, v) for u, v in self.pairs(seed)]
        while True:
            yield list(batch)

    def new_pass(self) -> dict:
        return {"p": fresh("d4:new")}

    def execute(self, op, ctx):
        p = ctx["p"]
        _, u, v = op
        return reversing.reverse_quotient(p, p.parse(u), p.parse(v))

    def summarize(self, op, trace):
        kind = type(trace.outcome).__name__
        span = trace.touched_indices("t") if kind != "Diverged" else None
        return kind, trace.step_count, span

    def decided(self, op, summary) -> bool:
        return summary[0] != "Diverged"

    def counts(self, op, summary) -> dict:
        return {"reversing.steps": summary[1]}

    def check(self, op, summary) -> str | None:
        """Compare a decided verdict with the oracle on a covering window."""
        kind, _, span = summary
        if kind == "Diverged":
            return None
        _, u, v = op
        key = (u, v)
        if key not in self._verdicts:
            need = 2 if span is None else max(2, abs(span[0]), abs(span[1]))
            if need not in self._windows:
                self._windows[need] = presentation.instantiate_window(fresh("d4:new"), need)
            w = self._windows[need]
            self._verdicts[key] = oracle.monoid_equal(w, w.parse(u), w.parse(v))
        if (kind == "Empty") != self._verdicts[key]:
            return f"quotient ({u}; {v}): reversing says {kind}, oracle says " \
                   f"{'equal' if self._verdicts[key] else 'not equal'}"
        return None


def _script_header(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"script lacks a {key!r} line")


class OracleWindow:
    """The brute-force cross-check path on the d4:new window of radius 2.

    A pass builds the window, scans it for cancellation failures, checks each
    double-twist derivation three ways (replayed, reversed, and by the
    oracle's closure) and closes the double twist's class.  One derivation
    check is one operation, so the median operation is one of five
    comparable closures rather than whichever small call happens to sit at
    the middle rank.
    """

    name = "oracle-window"
    setup = "presentation.instantiate_window(catalog.load('d4:new'), 2)"
    tail = 90  # between the two slowest of the 7 operations, inside the scan

    def __init__(self) -> None:
        self.scripts = {}
        for j in (1, 2, 3, 4):
            text = (FIXTURES / f"double_twist_s{j}.script").read_text(encoding="utf-8")
            self.scripts[j] = (text, _script_header(text, "start"), _script_header(text, "expect"))

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            rest = [("script", j) for j in (1, 2, 3, 4)] + [("class", 0)]
            rng.shuffle(rest)
            yield [("window", 0), ("scan", 0)] + rest

    def new_pass(self) -> dict:
        return {}

    def execute(self, op, ctx):
        kind, j = op
        if kind == "window":
            ctx["p"] = fresh("d4:new")
            ctx["w"] = presentation.instantiate_window(ctx["p"], 2)
            return ctx["w"]
        p, w = ctx["p"], ctx["w"]
        try:
            if kind == "scan":
                return oracle.cancellation_scan(w, max_len=3)
            if kind == "class":
                return oracle.equivalence_class(w, w.parse(DOUBLE_TWIST))
            text, start, expect = self.scripts[j]
            replay = derivation.verify_script(p, derivation.parse_script(text, p))
            trace = reversing.reverse_quotient(p, p.parse(start), p.parse(expect))
            return replay, trace, oracle.monoid_equal(w, w.parse(start), w.parse(expect))
        except oracle.OracleCapError:
            return "cap"

    def summarize(self, op, result):
        kind, _ = op
        if result == "cap":
            return "cap"
        if kind == "window":
            return len(result.alphabet.finite_generators()), bool(result.alphabet.integer_families)
        if kind == "scan":
            return result.words_checked, result.cancellative
        if kind == "class":
            words = {str(w) for w in result}
            _, start, expect = self.scripts[1]
            return len(result), start in words and expect in words
        replay, trace, equal = result
        return (replay.ok, len(replay.intermediates) - 1,
                type(trace.outcome).__name__, trace.step_count, equal)

    def decided(self, op, summary) -> bool:
        return summary != "cap"

    def counts(self, op, summary) -> dict:
        kind, _ = op
        if summary == "cap":
            return {}
        if kind == "scan":
            return {"oracle.words_checked": summary[0]}
        if kind == "script":
            return {"reversing.steps": summary[3]}
        return {}

    def check(self, op, summary) -> str | None:
        kind, j = op
        if summary == "cap":
            return f"{kind} {j}: the oracle hit its cap"
        if kind == "window":
            ok = summary == (9, False)
        elif kind == "scan":
            ok = summary == (SCAN_WORDS, True)
        elif kind == "class":
            ok = summary == (DOUBLE_TWIST_CLASS, True)
        else:
            verified, steps, outcome, _, equal = summary
            ok = verified and steps == 7 and outcome == "Empty" and equal
        return None if ok else f"{kind} {j}: unexpected result {summary!r}"


WORKLOADS = {w.name: w for w in (CertifyElliptic, QuotientRandom, OracleWindow)}
