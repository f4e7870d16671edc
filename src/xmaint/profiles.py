"""Per-language lexical profiles and the profile registry.

Profiles are pure data: everything the lexer, unit extractor, and metric
layer need to know about a language lives here, so new languages can be
added from a JSON definition file without code changes (schema in
docs/profile-schema.json).
"""

import json
import math
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .errors import InvalidProfileConfig, UnknownLanguage

BRACE_BLOCK = "brace-block"
INDENT_BLOCK = "indent-block"
KEYWORD_PAIR = "keyword-pair"

_UNIT_DETECTIONS = (BRACE_BLOCK, INDENT_BLOCK, KEYWORD_PAIR)


class _ProfileFields(NamedTuple):
    id: str
    file_extensions: tuple[str, ...]
    line_comment_markers: tuple[str, ...]
    block_comment_delimiters: tuple[tuple[str, str], ...]
    string_delimiters: tuple[tuple[str, str, str], ...]  # (open, close, escape); escape "" = none
    decision_tokens: frozenset[str]
    operator_tokens: frozenset[str]
    unit_detection: str
    unit_keywords: tuple[str, ...]
    unit_end_keywords: tuple[str, ...] = ()  # keyword-pair close markers
    nesting_keywords: tuple[tuple[str, str], ...] = ()  # keyword-pair nesting (open, close)
    keywords: frozenset[str] = frozenset()
    identifier_pattern: str = r"[A-Za-z_][A-Za-z0-9_]*"
    naming_pattern: str = r"^[a-z_][a-zA-Z0-9_]*$"  # default for the naming-convention rule
    case_sensitive: bool = True
    verbosity_factor: float = 1.0


class LanguageProfile(_ProfileFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.verbosity_factor < float("inf"):  # NaN too
            raise InvalidProfileConfig(f"profile '{self.id}': verbosity_factor must be a finite number > 0")
        if self.unit_detection not in _UNIT_DETECTIONS:
            raise InvalidProfileConfig(
                f"profile '{self.id}': unit_detection must be one of {_UNIT_DETECTIONS}"
            )
        try:
            re.compile(self.naming_pattern)
        except re.error as exc:
            raise InvalidProfileConfig(f"profile '{self.id}': bad naming_pattern: {exc}") from None
        _check_lexemes(self)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so ``_replace`` is checked too

    def fold(self, text: str) -> str:
        """Canonical casing for token-text comparisons."""
        return text if self.case_sensitive else text.upper()

    def as_dict(self) -> dict:
        return {name: _plain(value) for name, value in zip(self._fields, self)}


def _plain(value):
    """A profile field as JSON data: a frozenset as a sorted list, a tuple as
    a list (recursively), anything else as it is."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


# every character str.isspace() accepts; none lies above U+3000
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)


def _check_lexemes(profile: LanguageProfile) -> None:
    """The lexer skips whitespace before each token, so a token starts at a
    non-whitespace character: comment markers and openers, string openers
    and operator and decision tokens must be non-empty and must not begin
    with whitespace, closers must be non-empty, and the identifier pattern
    must match neither the empty string nor a whitespace character. The
    pattern is one alternative of the master regex, so it may hold neither a
    capturing group (its number or name would point into the master's
    groups) nor global inline flags such as ``(?i)``."""
    def fail(message):
        raise InvalidProfileConfig(f"profile '{profile.id}': {message}")

    starts = {
        "line_comment_markers": profile.line_comment_markers,
        "block_comment_delimiters": [o for o, _ in profile.block_comment_delimiters],
        "string_delimiters": [o for o, _, _ in profile.string_delimiters],
        "operator_tokens": sorted(profile.operator_tokens),
        "decision_tokens": sorted(profile.decision_tokens),
    }
    for key, lexemes in starts.items():
        for lexeme in lexemes:
            if not lexeme:
                fail(f"{key} has an empty entry")
            if lexeme[0].isspace():
                fail(f"{key} entry {lexeme!r} begins with whitespace")
    closers = [c for _, c in profile.block_comment_delimiters]
    closers += [c for _, c, _ in profile.string_delimiters]
    if "" in closers:
        fail("a block comment or string delimiter has an empty closer")

    try:
        identifier = re.compile(profile.identifier_pattern)
    except re.error as exc:
        fail(f"bad identifier_pattern: {exc}")
    if identifier.groups:
        fail("identifier_pattern has a capturing group; use (?:...)")
    try:
        re.compile(f"(?:{profile.identifier_pattern})")
    except re.error:
        fail("identifier_pattern sets global inline flags; scope them as (?i:...)")
    if identifier.fullmatch(""):
        fail("identifier_pattern matches the empty string")
    for ch in _WHITESPACE:
        if identifier.fullmatch(ch):
            fail(f"identifier_pattern matches the whitespace character {ch!r}")


class FoldedTokens(NamedTuple):
    """A profile's token-text sets under its case folding."""

    decisions: frozenset[str]
    operators: frozenset[str]
    keywords: frozenset[str]


@lru_cache(maxsize=None)
def folded_tokens(profile: LanguageProfile) -> FoldedTokens:
    """Built once per profile: the lexer, unit and metric layers ask per call."""
    fold = profile.fold
    return FoldedTokens(
        decisions=frozenset(map(fold, profile.decision_tokens)),
        operators=frozenset(map(fold, profile.operator_tokens)),
        keywords=frozenset(map(fold, profile.keywords)),
    )


_C_OPERATORS = frozenset(
    """= + - * / % ++ -- == != < > <= >= && || ! & | ^ ~ << >> += -= *= /= %=
    &= |= ^= <<= >>= -> ? .""".split()
)

_C_KEYWORDS = frozenset(
    """if else while for do switch case default break continue return goto try catch
    finally throw throws new delete class struct enum union typedef sizeof static const
    void int char short long float double signed unsigned bool true false null this
    public private protected final abstract namespace using import package extends
    implements interface volatile extern inline virtual override var let""".split()
)

_PY_OPERATORS = frozenset(
    """= + - * / // % ** @ == != < > <= >= and or not in is & | ^ ~ << >> += -= *= /=
    //= %= **= &= |= ^= <<= >>= := -> .""".split()
)

_PY_KEYWORDS = frozenset(
    """False None True and as assert async await break class continue def del elif else
    except finally for from global if import in is lambda nonlocal not or pass raise
    return try while with yield match case""".split()
)

_COBOL_OPERATORS = frozenset("= + - * / ** > < >= <= <> AND OR NOT".split())

_COBOL_KEYWORDS = frozenset(
    """IF ELSE THEN END-IF EVALUATE WHEN OTHER END-EVALUATE PERFORM END-PERFORM UNTIL
    VARYING TIMES MOVE TO COMPUTE ADD SUBTRACT MULTIPLY DIVIDE DISPLAY ACCEPT SECTION
    DIVISION PROCEDURE PARAGRAPH END-PARAGRAPH EXIT STOP RUN GIVING FROM BY INTO AND OR
    NOT TRUE FALSE PIC VALUE DATA WORKING-STORAGE IDENTIFICATION PROGRAM-ID CALL
    RETURNING CONTINUE""".split()
)

C_FAMILY = LanguageProfile(
    id="c-family",
    file_extensions=(".c", ".h", ".cc", ".cpp", ".hpp", ".hh", ".java", ".cs"),
    line_comment_markers=("//",),
    block_comment_delimiters=(("/*", "*/"),),
    string_delimiters=(('"', '"', "\\"), ("'", "'", "\\")),
    decision_tokens=frozenset({"if", "while", "for", "case", "catch", "&&", "||", "?"}),
    operator_tokens=_C_OPERATORS,
    unit_detection=BRACE_BLOCK,
    unit_keywords=("void", "int", "char", "short", "long", "float", "double", "bool", "unsigned", "signed"),
    keywords=_C_KEYWORDS,
    identifier_pattern=r"[A-Za-z_][A-Za-z0-9_]*",
    naming_pattern=r"^[a-z][a-zA-Z0-9]*$",
    case_sensitive=True,
    verbosity_factor=1.0,
)

PYTHON = LanguageProfile(
    id="python",
    file_extensions=(".py",),
    line_comment_markers=("#",),
    block_comment_delimiters=(),
    string_delimiters=(
        ('"""', '"""', "\\"),
        ("'''", "'''", "\\"),
        ('"', '"', "\\"),
        ("'", "'", "\\"),
    ),
    decision_tokens=frozenset({"if", "elif", "while", "for", "except", "and", "or"}),
    operator_tokens=_PY_OPERATORS,
    unit_detection=INDENT_BLOCK,
    unit_keywords=("def",),
    keywords=_PY_KEYWORDS,
    identifier_pattern=r"[A-Za-z_][A-Za-z0-9_]*",
    naming_pattern=r"^[a-z_][a-z0-9_]*$",
    case_sensitive=True,
    verbosity_factor=1.0,
)

COBOL_LIKE = LanguageProfile(
    id="cobol-like",
    file_extensions=(".cob", ".cbl"),
    line_comment_markers=("*>",),
    block_comment_delimiters=(),
    string_delimiters=(('"', '"', ""), ("'", "'", "")),
    decision_tokens=frozenset({"IF", "WHEN", "UNTIL", "AND", "OR"}),
    operator_tokens=_COBOL_OPERATORS,
    unit_detection=KEYWORD_PAIR,
    unit_keywords=("PARAGRAPH",),
    unit_end_keywords=("END-PARAGRAPH",),
    nesting_keywords=(
        ("IF", "END-IF"),
        ("EVALUATE", "END-EVALUATE"),
        ("PERFORM", "END-PERFORM"),
    ),
    keywords=_COBOL_KEYWORDS,
    identifier_pattern=r"[A-Za-z](?:[A-Za-z0-9]|-(?=[A-Za-z0-9]))*",
    naming_pattern=r"^[A-Z][A-Z0-9-]*$",
    case_sensitive=False,
    verbosity_factor=2.0,
)

BUILTIN_PROFILES = (C_FAMILY, PYTHON, COBOL_LIKE)


class ProfileRegistry:
    """Registered profiles, indexed by id and by file extension."""

    def __init__(self, profiles=BUILTIN_PROFILES):
        self._by_id: dict[str, LanguageProfile] = {}
        self._by_extension: dict[str, LanguageProfile] = {}
        for profile in profiles:
            self.register(profile)

    def register(self, profile: LanguageProfile) -> None:
        """Add or replace a profile; extensions must stay unique across profiles."""
        previous = self._by_id.get(profile.id)
        if previous is not None:
            for ext in previous.file_extensions:
                self._by_extension.pop(ext, None)
        for ext in profile.file_extensions:
            owner = self._by_extension.get(ext)
            if owner is not None and owner.id != profile.id:
                raise InvalidProfileConfig(
                    f"extension '{ext}' already registered by profile '{owner.id}'"
                )
        self._by_id[profile.id] = profile
        for ext in profile.file_extensions:
            self._by_extension[ext] = profile

    def get(self, profile_id: str) -> LanguageProfile:
        try:
            return self._by_id[profile_id]
        except KeyError:
            raise UnknownLanguage(f"no profile with id '{profile_id}'") from None

    def profiles(self) -> list[LanguageProfile]:
        return [self._by_id[k] for k in sorted(self._by_id)]


def detect_profile(path, registry: ProfileRegistry) -> LanguageProfile:
    """Pick the profile owning the path's extension; UnknownLanguage otherwise."""
    ext = Path(path).suffix.lower()
    profile = registry._by_extension.get(ext)
    if profile is None:
        raise UnknownLanguage(f"no language profile matches extension '{ext}' ({path})")
    return profile


_REQUIRED_KEYS = ("id", "file_extensions", "unit_detection")


def profile_from_dict(data: dict) -> LanguageProfile:
    """Build a profile from a JSON-style dict, checking keys, types and shapes."""
    if not isinstance(data, dict):
        raise InvalidProfileConfig("profile definition must be an object")
    unknown = set(data) - set(LanguageProfile._fields)
    if unknown:
        raise InvalidProfileConfig(f"unknown profile keys: {sorted(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise InvalidProfileConfig(f"profile definition missing required key '{key}'")

    def str_tuple(key):
        value = data.get(key, ())
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise InvalidProfileConfig(f"profile key '{key}' must be a list of strings")
        return tuple(value)

    defaults = LanguageProfile._field_defaults

    def typed(key, kinds, what):
        value = data.get(key, defaults.get(key, ()))
        # a bool is an int to isinstance, but not a JSON number
        if isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds):
            raise InvalidProfileConfig(f"profile key '{key}' must be {what}")
        return value

    def pair_tuple(key, arity):
        value = typed(key, (list, tuple), "a list")
        for item in value:
            if not (isinstance(item, (list, tuple)) and len(item) == arity
                    and all(isinstance(x, str) for x in item)):
                raise InvalidProfileConfig(f"profile key '{key}' entries must have {arity} strings")
        return tuple(map(tuple, value))

    factor = data.get("verbosity_factor", defaults["verbosity_factor"])
    if not (is_number(factor) or isinstance(factor, float)):  # LanguageProfile refuses NaN and infinity
        raise InvalidProfileConfig("profile key 'verbosity_factor' must be a number")
    return LanguageProfile(
        id=typed("id", str, "a string"),
        file_extensions=str_tuple("file_extensions"),
        line_comment_markers=str_tuple("line_comment_markers"),
        block_comment_delimiters=pair_tuple("block_comment_delimiters", 2),
        string_delimiters=pair_tuple("string_delimiters", 3),
        decision_tokens=frozenset(str_tuple("decision_tokens")),
        operator_tokens=frozenset(str_tuple("operator_tokens")),
        unit_detection=data["unit_detection"],  # checked against _UNIT_DETECTIONS
        unit_keywords=str_tuple("unit_keywords"),
        unit_end_keywords=str_tuple("unit_end_keywords"),
        nesting_keywords=pair_tuple("nesting_keywords", 2),
        keywords=frozenset(str_tuple("keywords")),
        identifier_pattern=typed("identifier_pattern", str, "a string"),
        naming_pattern=typed("naming_pattern", str, "a string"),
        case_sensitive=typed("case_sensitive", bool, "true or false"),
        verbosity_factor=float(factor),
    )


def is_number(value) -> bool:
    """The one number check of a config or profile value: an int (not a
    bool) or float that converts to a finite double. ``read_json`` gives no
    other numbers; a library caller's dict is held to the same."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond a double's range
        return False


def _no_constant(name: str):
    raise ValueError(f"{name} is not a number JSON allows")


def _no_overflow(text: str) -> str:
    if not math.isfinite(float(text)):
        raise ValueError(f"{text} overflows a double")
    return text


def read_json(path):
    """The value a config, profile or snapshot file holds. JSON has no NaN
    or infinity (RFC 8259), and no measured value may rest on one; Python's
    reader would otherwise accept them, and read a number beyond a double's
    range, such as 1e400, as infinity, so here each raises ValueError, as
    bad JSON and bad UTF-8 do."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_no_constant,
                      parse_float=lambda text: float(_no_overflow(text)),
                      parse_int=lambda text: int(_no_overflow(text)))


def load_profiles_file(path) -> list[LanguageProfile]:
    """Load profile definitions from a JSON file (one object or a list of them)."""
    try:
        raw = read_json(path)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, NaN or bad UTF-8
        raise InvalidProfileConfig(f"cannot load profile file {path}: {exc}") from exc
    items = raw if isinstance(raw, list) else [raw]
    return [profile_from_dict(item) for item in items]


def build_registry(extra_profiles=(), profile_files=()) -> ProfileRegistry:
    registry = ProfileRegistry()
    for path in profile_files:
        for profile in load_profiles_file(path):
            registry.register(profile)
    for data in extra_profiles:
        registry.register(profile_from_dict(data))
    return registry
