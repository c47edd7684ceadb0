"""The written-out classes against the dataclasses they replace.

Each class of the package once came from @dataclass, which compiles its
methods when the module is imported.  The declarations below are those
dataclasses, each spelled with the __qualname__ of its class so that the
reprs compare; they are the oracle of what each class kept: its repr, its ==
and hash, Barb's order, the checks of its __init__ and its match arguments.
The pi nodes keep only their repr and match arguments, as the others' ==
and hash are the identity's, and stay frozen and interned.
"""

import copy
import pickle
from dataclasses import dataclass, field
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transcheck.encodings import (ContextProbe, EncodingReport, FullAbstractionReport,
                                  boudol_encoding)
from transcheck.finlang import (FiniteLanguage, InputError, Operator, PropertyReport,
                                Relation, SemanticTranslation)
from transcheck.pi import (Barb, ExtBarb, In, Nil, Out, Par, PiTerm, PVar, Repl, Res,
                           _Acts, _CopyLevel, _Level, _Names, _Spans, _Unbind, parse_pi)
from transcheck.terms import (_PLACEHOLDER, App, Construct, Signature, TermError,
                              Translation, Var, _HeadPlan, validate)
from transcheck.verdict import Verdict

# ------------- the dataclasses, kept as oracles -------------


@dataclass(frozen=True)
class OldVerdict:
    __qualname__ = "Verdict"
    status: str
    witness: object = None
    note: str = ""
    checked: int = 0


@dataclass(frozen=True)
class OldConstruct:
    __qualname__ = "Construct"
    name: str
    args: int
    binders: tuple
    slots: tuple = field(init=False, repr=False, compare=False)
    scopes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.args < 0:
            raise TermError(f"{self.name}: negative arity")
        if len(self.binders) != self.args:
            raise TermError(f"{self.name}: binding profile length != arity")
        slots = tuple(dict.fromkeys(lbl for per_arg in self.binders for lbl in per_arg))
        for lbl in slots:
            if _PLACEHOLDER.match(lbl):
                raise TermError(f"{self.name}: slot label {lbl} collides with argument placeholders")
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "scopes", tuple(
            tuple(slots.index(lbl) for lbl in per_arg) for per_arg in self.binders))


@dataclass(frozen=True)
class OldSignature:
    __qualname__ = "Signature"
    name: str
    constructs: tuple
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name = {c.name: c for c in self.constructs}
        if len(by_name) != len(self.constructs):
            raise TermError(f"{self.name}: duplicate construct names")
        object.__setattr__(self, "_by_name", by_name)


@dataclass(frozen=True)
class OldVar:
    __qualname__ = "Var"
    name: str


@dataclass(frozen=True)
class OldApp:
    __qualname__ = "App"
    op: str
    bound: tuple
    args: tuple
    _fv_memo: object = field(default=None, init=False, repr=False, compare=False, hash=False)
    _names_memo: object = field(default=None, init=False, repr=False, compare=False,
                                hash=False)


@dataclass(frozen=True)
class OldTranslation:
    __qualname__ = "Translation"
    source: object
    target: object
    heads: tuple
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        images = dict(self.heads)
        stray = sorted(op for op in images if op not in self.source)
        if stray:
            raise TermError(f"translation has images for constructs {self.source.name} "
                            f"lacks: {stray}")
        for c in self.source.constructs:
            if c.name not in images:
                raise TermError(f"translation lacks an image for {c.name}")
            validate(self.target, images[c.name])
        object.__setattr__(self, "_images", images)


@dataclass(frozen=True, order=True)
class OldBarb:
    __qualname__ = "Barb"
    kind: str
    name: str


@dataclass(frozen=True)
class OldCopyLevel:
    __qualname__ = "_CopyLevel"
    cid: int
    nus: tuple
    parts: tuple
    part: int


@dataclass(frozen=True)
class OldOperator:
    __qualname__ = "Operator"
    name: str
    arity: int
    table: dict = field(hash=False)


@dataclass(frozen=True)
class OldFiniteLanguage:
    __qualname__ = "FiniteLanguage"
    name: str
    values: tuple
    operators: tuple

    def __post_init__(self) -> None:
        vs = set(self.values)
        if len(vs) < len(self.values):
            dup = sorted({v for v in vs if self.values.count(v) > 1})
            raise InputError(f"{self.name}: duplicate values {dup}")
        names = [op.name for op in self.operators]
        dup = sorted({n for n in names if names.count(n) > 1})
        if dup:
            raise InputError(f"{self.name}: duplicate operator names {dup}")
        for op in self.operators:
            keys = set(op.table)
            want = set(product(self.values, repeat=op.arity))
            if not keys <= want:
                extra = sorted(keys - want)[:3]
                raise InputError(f"{self.name}.{op.name}: table keys outside values: {extra}")
            if keys != want:
                missing = sorted(want - keys)[:3]
                raise InputError(f"{self.name}.{op.name}: table not total, missing {missing}")
            for out in op.table.values():
                if out not in vs:
                    raise InputError(f"{self.name}.{op.name}: result {out} outside values")


@dataclass(frozen=True)
class OldRelation:
    __qualname__ = "Relation"
    name: str
    kind: str
    carrier: tuple
    pairs: frozenset


@dataclass(frozen=True)
class OldSemanticTranslation:
    __qualname__ = "SemanticTranslation"
    name: str
    pairs: tuple


def old_pi_node(name, *fields):
    """The dataclass of a pi node, not interned: its repr is the oracle's."""
    return dataclass(frozen=True, eq=False)(
        type(name, (), {"__annotations__": dict.fromkeys(fields, object),
                        "__qualname__": name}))


OLD_PI = {cls: old_pi_node(cls.__name__, *cls.__match_args__)
          for cls in (Nil, Out, In, Par, Res, Repl, PVar, ExtBarb)}

# ------------- drawn field values, built on both sides -------------

# short names, one with a quote, so that repr picks its quotes as the old one did
NAMES = st.sampled_from(["x", "y", "X1", "it's", ""])

# a term as (op, bound, args) or a variable's name
shapes = st.recursive(
    NAMES, lambda kids: st.tuples(st.sampled_from(["f", "g"]),
                                  st.lists(NAMES, max_size=2).map(tuple),
                                  st.lists(kids, max_size=3).map(tuple)),
    max_leaves=6)


def build(shape, var, app):
    if isinstance(shape, str):
        return var(shape)
    op, bound, args = shape
    return app(op, bound, tuple(build(a, var, app) for a in args))


def both_terms(shape):
    return build(shape, Var, App), build(shape, OldVar, OldApp)


# a pi term as (class, fields); a field is a name or a subterm
pi_shapes = st.recursive(
    st.one_of(st.just((Nil, ())), st.tuples(st.sampled_from([PVar, ExtBarb]),
                                            st.tuples(NAMES))),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from([Out, In]), st.tuples(NAMES, NAMES, kids)),
        st.tuples(st.just(Par), st.tuples(kids, kids)),
        st.tuples(st.just(Res), st.tuples(NAMES, kids)),
        st.tuples(st.just(Repl), st.tuples(kids))),
    max_leaves=6)


def build_pi(shape, old: bool):
    cls, fields = shape
    made = [build_pi(f, old) if isinstance(f, tuple) else f for f in fields]
    return OLD_PI[cls](*made) if old else cls(*made)


def assert_same_eq_and_hash(new_pair, old_pair):
    """== and != agree with the oracle on a pair, and an object's hash is the
    oracle's: the same tuple of fields is hashed."""
    (a, b), (c, d) = new_pair, old_pair
    assert (a == b, a != b) == (c == d, c != d)
    assert (a == "a", a != 0) == (c == "a", c != 0)
    assert hash(a) == hash(c) and hash(b) == hash(d)


# ------------- terms -------------

@settings(max_examples=80, deadline=None)
@given(shapes, shapes)
def test_terms_have_the_old_repr_eq_and_hash(s, t):
    (a, old_a), (b, old_b) = both_terms(s), both_terms(t)
    assert repr(a) == repr(old_a)
    assert_same_eq_and_hash((a, b), (old_a, old_b))
    assert a == both_terms(s)[0] and hash(a) == hash(both_terms(s)[0])


@settings(max_examples=60, deadline=None)
@given(shapes)
def test_terms_match_their_fields(s):
    got = []
    for t in both_terms(s):
        match t:
            case Var(x) | OldVar(x):
                got.append(x)
            case App(op, bound, args) | OldApp(op, bound, args):
                got.append((op, bound, len(args)))
    assert got[0] == got[1] == (s if isinstance(s, str) else (s[0], s[1], len(s[2])))


BINDERS = st.lists(st.lists(st.sampled_from(["x", "y", "X1"]), max_size=2).map(tuple),
                   max_size=3).map(tuple)


def outcome(make, *args):
    """What make(*args) gives: an object, or the type and text of its error."""
    try:
        return make(*args)
    except (TermError, InputError, ValueError) as e:
        return type(e), str(e)


def failed(new, old) -> bool:
    """Whether the class and its oracle refused their fields, each with the
    same error, which they must both do or both not do."""
    errors = [x if isinstance(x, tuple) else None for x in (new, old)]
    assert errors[0] == errors[1]
    return errors[0] is not None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["f", "g"]), st.integers(-1, 3), BINDERS,
       st.sampled_from(["f", "g"]), st.integers(0, 2), BINDERS)
def test_constructs_and_signatures_check_and_compare_as_before(n1, k1, b1, n2, k2, b2):
    c, old_c = outcome(Construct, n1, k1, b1), outcome(OldConstruct, n1, k1, b1)
    d, old_d = outcome(Construct, n2, k2, b2), outcome(OldConstruct, n2, k2, b2)
    if failed(c, old_c) | failed(d, old_d):
        return
    assert (c.slots, c.scopes) == (old_c.slots, old_c.scopes)
    assert_same_eq_and_hash((c, d), (old_c, old_d))
    sig, old_sig = outcome(Signature, "s", (c, d)), outcome(OldSignature, "s", (old_c, old_d))
    if failed(sig, old_sig):
        return
    assert_same_eq_and_hash((sig, Signature("s", (c,))), (old_sig, OldSignature("s", (old_c,))))
    assert sig[c.name] is c and c.name in sig


G_OF_X1 = App("g", (), (Var("X1"),))


@pytest.mark.parametrize("heads", [
    {"f": G_OF_X1},                                 # an image for every construct
    {"f": G_OF_X1, "h": G_OF_X1},                   # and one for a construct the source lacks
    {},                                             # no image for f
    {"f": App("k", (), (Var("X1"),))},              # an image the target cannot spell
])
def test_translations_check_as_before(heads):
    src = Signature("a", (Construct("f", 1, ((),)),))
    tgt = Signature("b", (Construct("g", 1, ((),)),))
    heads = tuple(sorted(heads.items()))
    new, old = outcome(Translation, src, tgt, heads), outcome(OldTranslation, src, tgt, heads)
    if not failed(new, old):
        assert (new.heads, new.head("f")) == (old.heads, old._images["f"])


# ------------- barbs, copy levels -------------

BARBS = st.lists(st.tuples(st.sampled_from(["out", "in", "ext"]), NAMES), max_size=8)


@settings(max_examples=80, deadline=None)
@given(BARBS)
def test_barbs_sort_compare_and_hash_as_before(fields):
    new = sorted(Barb(*f) for f in fields)
    old = sorted(OldBarb(*f) for f in fields)
    assert [(b.kind, b.name) for b in new] == [(b.kind, b.name) for b in old]
    for (a, b), (c, d) in zip(product(new, repeat=2), product(old, repeat=2)):
        assert_same_eq_and_hash((a, b), (c, d))
        assert (a < b, b < a) == (c < d, d < c)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([(), ("a",)]),
                          st.sampled_from([(), (Nil(),), (Nil(), PVar("X"))]),
                          st.integers(0, 1)), min_size=2, max_size=2))
def test_copy_levels_compare_and_hash_as_before(fields):
    (a, b), (c, d) = [_CopyLevel(*f) for f in fields], [OldCopyLevel(*f) for f in fields]
    assert_same_eq_and_hash((a, b), (c, d))


# ------------- languages, relations, semantic translations, verdicts -------------

TABLES = st.sampled_from([{}, {(): "a"}, {(): "c"}, {("a",): "a", ("b",): "a"}, {("a",): "b"}])
OPERATORS = st.tuples(st.sampled_from(["f", "g"]), st.integers(0, 1), TABLES)


@settings(max_examples=80, deadline=None)
@given(OPERATORS, OPERATORS, st.sampled_from([("a", "b"), ("a", "a"), ()]))
def test_operators_and_languages_check_and_compare_as_before(o1, o2, values):
    ops, old_ops = (Operator(*o1), Operator(*o2)), (OldOperator(*o1), OldOperator(*o2))
    assert_same_eq_and_hash(ops, old_ops)
    lang, old = outcome(FiniteLanguage, "l", values, ops), outcome(OldFiniteLanguage, "l",
                                                                   values, old_ops)
    if not failed(lang, old):
        assert (lang.name, lang.values, lang.operators) == ("l", values, ops)


CARRIER = st.lists(st.sampled_from(["l.a", "l.b"]), max_size=2, unique=True).map(tuple)
PAIRS = st.frozensets(st.tuples(st.sampled_from(["l.a", "l.b"]),
                                st.sampled_from(["l.a", "l.b"])), max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["sim", "R"]), st.sampled_from(["equivalence"]),
                          CARRIER, PAIRS), min_size=2, max_size=2))
def test_relations_and_semantic_translations_compare_as_before(fields):
    assert_same_eq_and_hash([Relation(*f) for f in fields], [OldRelation(*f) for f in fields])
    sem = [(name, tuple(sorted(pairs))) for name, _, _, pairs in fields]
    new, old = [SemanticTranslation(*f) for f in sem], [OldSemanticTranslation(*f) for f in sem]
    assert [repr(r) for r in new] == [repr(r) for r in old]
    assert_same_eq_and_hash(new, old)


def witnesses(shape):
    """A witness on both sides: a term, a semantic translation, a dict or a
    tuple of them, as the checks give."""
    t, old_t = both_terms(shape)
    pairs = (("b.x", "a.y"),)
    return st.sampled_from([
        (None, None), ((t, {"X": "a"}), (old_t, {"X": "a"})), (t, old_t),
        (SemanticTranslation("R", pairs), OldSemanticTranslation("R", pairs)),
        ({"a": "b"}, {"a": "b"}), (("clause-3", t, t), ("clause-3", old_t, old_t))])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.lists(st.tuples(st.sampled_from(["yes", "no", "inconclusive"]), shapes,
                                     st.sampled_from(["", "it's cut"]), st.integers(0, 2)),
                           min_size=2, max_size=2))
def test_verdicts_have_the_old_repr_eq_and_hash(data, fields):
    new, old = [], []
    for status, shape, note, checked in fields:
        w, old_w = data.draw(witnesses(shape))
        new.append(Verdict(status, w, note, checked))
        old.append(OldVerdict(status, old_w, note, checked))
    assert [repr(v) for v in new] == [repr(v) for v in old]
    (a, b), (c, d) = new, old
    assert (a == b, a != b) == (c == d, c != d)
    if not any(isinstance(v.witness, (dict, tuple)) for v in new):  # a dict is unhashable
        assert_same_eq_and_hash(new, old)
    assert Verdict("yes") == Verdict("yes", None, "", 0)


# ------------- pi nodes -------------

@settings(max_examples=80, deadline=None)
@given(pi_shapes)
def test_pi_nodes_have_the_old_repr_and_match_their_fields(shape):
    t = build_pi(shape, old=False)
    assert repr(t) == repr(build_pi(shape, old=True))
    assert build_pi(shape, old=False) is t
    match t:
        case Out(x, z, k) | In(x, z, k):
            assert (x, z, k) == (t.chan, t.msg if isinstance(t, Out) else t.param, t.cont)
        case Par(left, right):
            assert (left, right) == (t.left, t.right)
        case Res(n, body):
            assert (n, body) == (t.name, t.body)
        case Repl(body):
            assert body is t.body
        case PVar(n) | ExtBarb(n):
            assert n == shape[1][0]
        case Nil():
            assert shape == (Nil, ())
        case _:
            raise AssertionError(t)


@pytest.mark.parametrize("text", ["0", "x!c", "x(y).new z. (y!z | !X) | @w"])
def test_a_pi_node_is_interned_frozen_and_copied_as_itself(text):
    t: PiTerm = parse_pi(text)
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert not hasattr(t, "__dict__")
    for name in type(t).__match_args__ or ("cont",):
        with pytest.raises(AttributeError):
            setattr(t, name, Nil())
        with pytest.raises(AttributeError):
            delattr(t, name)


def test_the_plain_classes_are_slotted():
    # FiniteLanguage keeps a __dict__ for its cached signature, tables and
    # qualified_values
    sig = Signature("s", ())
    made = [Verdict("yes"), Construct("f", 0, ()), sig, Var("x"), App("f", (), ()),
            Translation(sig, sig, ()), _HeadPlan((), ()), Barb("out", "x"),
            _CopyLevel(0, (), (), 0), Operator("f", 0, {(): "a"}),
            Relation("r", "equivalence", (), frozenset()), SemanticTranslation("R", ()),
            PropertyReport(1, 0, {}, []), boudol_encoding(),
            ContextProbe(Nil(), Nil(), Barb("out", "x")), EncodingReport("weak-barbed"),
            FullAbstractionReport(), _Names(set(), set(), set(), {}, set(), set(), False),
            _Unbind("x"), _Level(Nil(), [], [], [], frozenset()),
            _Spans((), b"\0", (0,), (), 0, (), None), _Acts((), frozenset(), frozenset())]
    assert [type(x).__name__ for x in made if hasattr(x, "__dict__")] == []
    assert hasattr(FiniteLanguage("l", ("a",), ()), "__dict__")
