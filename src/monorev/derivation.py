"""Step-by-step derivations and the translation-family substitution.

A derivation script replays an equality between words one rewrite at a
time, so a claimed consequence of the relations can be checked mechanically.
The text form is line-oriented:

    # optional comments
    presentation: d4:new
    start: t(1) t(0) s1 t(1) t(0) s1
    expect: s1 t(1) t(0) s1 t(1) t(0)
    rel translation i=2,j=1 rl @0
    rel t_braid i=1,j=1 lr @1
    cancel @4
    insert s1 @0

`rel` applies a bound schema instance at a position, reading it left-to-right
(lr: replace the left side by the right) or right-to-left (rl).  `cancel`
deletes an adjacent inverse pair and `insert` introduces one, which lets
scripts walk through group-level manipulations as well as positive ones.

The substitution half expresses every t(i) as a word in t(0) and t(1) alone:
conjugated alternating words for i >= 2, and the downward unfolding
t(i) = t(i+1)^-1 t(1) t(0) below zero.  verify_translation_product checks
the defining products collapse freely to t(1) t(0).
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .presentation import Presentation
from .words import Generator, Letter, Word, free_reduce, parse_letter, shift_word


class DerivationError(ValueError):
    """A script step that does not apply to the current word."""


class RelationStep(NamedTuple):
    schema: str
    bindings: tuple[tuple[str, int], ...]
    direction: str  # "lr" | "rl"
    position: int


class CancelStep(NamedTuple):
    position: int


class InsertStep(NamedTuple):
    letter: Letter
    position: int


DerivationStep = Union[RelationStep, CancelStep, InsertStep]


class DerivationScript(NamedTuple):
    presentation: str
    start: Word
    expect: Word
    steps: tuple[DerivationStep, ...]


class ScriptResult(NamedTuple):
    ok: bool
    intermediates: tuple[Word, ...]
    failed_at: int | None
    error: str | None

    @property
    def final(self) -> Word:
        return self.intermediates[-1]


def apply_step(p: Presentation, word: Word, step: DerivationStep) -> Word:
    if isinstance(step, CancelStep):
        i = step.position
        if i < 0 or i + 1 >= len(word):
            raise DerivationError(f"cancel @{i}: position out of range")
        if word[i + 1] != word[i].inverse():
            raise DerivationError(
                f"cancel @{i}: {word[i]} {word[i + 1]} is not an inverse pair"
            )
        return Word(word[:i] + word[i + 2:])
    if isinstance(step, InsertStep):
        i = step.position
        if i < 0 or i > len(word):
            raise DerivationError(f"insert @{i}: position out of range")
        return Word(word[:i] + (step.letter, step.letter.inverse()) + word[i:])
    try:  # an unknown schema, a missing binding or a value outside the domain
        inst = p.schema(step.schema).instantiate(dict(step.bindings))
    except (KeyError, ValueError) as exc:
        raise DerivationError(f"rel {step.schema}: {exc.args[0]}") from None
    if inst is None:
        raise DerivationError(f"rel {step.schema}: bindings give a degenerate instance")
    pattern, replacement = (inst.lhs, inst.rhs) if step.direction == "lr" else (inst.rhs, inst.lhs)
    i = step.position
    if i < 0 or i + len(pattern) > len(word):
        raise DerivationError(f"rel {step.schema} @{i}: position out of range")
    window = Word(word[i:i + len(pattern)])
    if window != pattern:
        raise DerivationError(
            f"rel {step.schema} @{i}: expected {pattern} in the word, found {window}"
        )
    return Word(word[:i] + replacement + word[i + len(pattern):])


def verify_script(p: Presentation, script: DerivationScript) -> ScriptResult:
    words = [script.start]
    for k, step in enumerate(script.steps):
        try:
            words.append(apply_step(p, words[-1], step))
        except DerivationError as exc:
            return ScriptResult(False, tuple(words), k, str(exc))
    if words[-1] != script.expect:
        return ScriptResult(False, tuple(words), None,
                            f"final word {words[-1]} differs from expected {script.expect}")
    return ScriptResult(True, tuple(words), None, None)


_REL_RE = re.compile(r"rel\s+(\S+)(?:\s+([a-z]=-?\d+(?:,[a-z]=-?\d+)*))?\s+(lr|rl)\s+@(\d+)\Z")
_CANCEL_RE = re.compile(r"cancel\s+@(\d+)\Z")
_INSERT_RE = re.compile(r"insert\s+(\S+)\s+@(\d+)\Z")


def _split_script(text: str) -> tuple[dict[str, str], list[str]]:
    """The header lines of a script, by key, and its step lines."""
    header: dict[str, str] = {}
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if sep and not body and key in ("presentation", "start", "expect"):
            if key in header:
                raise DerivationError(f"duplicate {key!r} line")
            header[key] = value.strip()
            continue
        body.append(line)
    for key in ("presentation", "start", "expect"):
        if key not in header:
            raise DerivationError(f"script lacks a {key!r} line")
    return header, body


def script_presentation(text: str) -> str:
    """The presentation a script names: a catalog key or a file path."""
    return _split_script(text)[0]["presentation"]


def parse_script(text: str, p: Presentation) -> DerivationScript:
    """Parse the line format, reading letters in the alphabet of p.

    p is the presentation the script names; `script_presentation` gives
    that name, a catalog key or a file path, before the script is parsed.
    """
    header, body = _split_script(text)
    steps: list[DerivationStep] = []
    for line in body:
        m = _REL_RE.match(line)
        if m is not None:
            name, raw_bindings, direction, pos = m.groups()
            bindings = []
            if raw_bindings:
                for part in raw_bindings.split(","):
                    pname, _, pval = part.partition("=")
                    if any(pname == bound for bound, _ in bindings):
                        raise DerivationError(f"script line {line!r} binds {pname} twice")
                    bindings.append((pname, int(pval)))
            steps.append(RelationStep(name, tuple(bindings), direction, int(pos)))
            continue
        m = _CANCEL_RE.match(line)
        if m is not None:
            steps.append(CancelStep(int(m.group(1))))
            continue
        m = _INSERT_RE.match(line)
        if m is not None:
            steps.append(InsertStep(parse_letter(m.group(1), p.alphabet), int(m.group(2))))
            continue
        raise DerivationError(f"unrecognised script line {line!r}")
    start = p.parse(header["start"])
    expect = p.parse(header["expect"])
    return DerivationScript(header["presentation"], start, expect, tuple(steps))


def format_script(script: DerivationScript) -> str:
    lines = [
        f"presentation: {script.presentation}",
        f"start: {script.start}",
        f"expect: {script.expect}",
    ]
    for step in script.steps:
        if isinstance(step, RelationStep):
            parts = ["rel", step.schema]
            if step.bindings:
                parts.append(",".join(f"{k}={v}" for k, v in step.bindings))
            parts.append(step.direction)
            parts.append(f"@{step.position}")
            lines.append(" ".join(parts))
        elif isinstance(step, CancelStep):
            lines.append(f"cancel @{step.position}")
        else:
            lines.append(f"insert {step.letter} @{step.position}")
    return "\n".join(lines) + "\n"


def shift_script(p: Presentation, script: DerivationScript, k: int) -> DerivationScript:
    """Translate every index of every integer family of p by k.

    The letters of the start, the expected word and the inserts move,
    through shift_word, and so do the bindings of the Z-ranged parameters
    over an integer family, so the result replays the same derivation k
    levels up.
    """
    fams = p.alphabet.integer_families
    steps: list[DerivationStep] = []
    for step in script.steps:
        if isinstance(step, RelationStep):
            schema = p.schema(step.schema)
            shiftable = {pp.name for pp in schema.params
                         if pp.values is None and schema.param_family(pp.name) in fams}
            bindings = tuple((name, value + k if name in shiftable else value)
                             for name, value in step.bindings)
            steps.append(RelationStep(step.schema, bindings, step.direction, step.position))
        elif isinstance(step, InsertStep):
            steps.append(InsertStep(shift_word((step.letter,), k, fams)[0], step.position))
        else:
            steps.append(step)
    return DerivationScript(script.presentation, shift_word(script.start, k, fams),
                            shift_word(script.expect, k, fams), tuple(steps))


# -- expressing t(i) through t(0) and t(1) --------------------------------

_T0 = Word((Letter(Generator("t", 0)),))
_T1 = Word((Letter(Generator("t", 1)),))


def t_expression(i: int) -> Word:
    """t(i) as a freely reduced word in t(0), t(1).

    For i >= 1 this is the conjugate P c P^-1 with P the alternating word
    t(1) t(0) t(1) ... of length i-1 and c the opposite letter.  For i <= 0
    it is P^-1 c P with P the alternating word ... t(1) t(0) of length |i|
    and c the letter that continues P to the left: the defining product
    t(i) = t(i+1)^-1 t(1) t(0) cancels nothing, and unfolds downward to that.
    Lengths are 2i-1 for i >= 1 and 2|i|+1 for i <= 0.
    """
    centre = _T1 if i % 2 else _T0
    if i >= 1:
        prefix = Word(Letter(Generator("t", 1 - j % 2)) for j in range(i - 1))
        return prefix * centre * prefix.inverse()
    suffix = Word(Letter(Generator("t", (j - i - 1) % 2)) for j in range(-i))
    return suffix.inverse() * centre * suffix


def substitute_t(word: Word) -> Word:
    """Replace each t(i) letter by its expression and freely reduce."""
    out: list[Letter] = []
    for letter in word:
        if letter.gen.family != "t":
            out.append(letter)
            continue
        expr = t_expression(letter.gen.index)
        out.extend(expr if letter.sign > 0 else expr.inverse())
    return free_reduce(Word(out))


def verify_translation_product(i: int) -> bool:
    """Does t(i) t(i-1) collapse freely to t(1) t(0) after substitution?"""
    return free_reduce(t_expression(i) * t_expression(i - 1)) == _T1 * _T0
