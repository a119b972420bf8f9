"""Canonical JSON round trips for every document type."""

import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotile import Field, FieldError, GeometryError, PlaneLattice, Polygon, Zonotope, ZonotileError
from zonotile import RATIONALS, FieldElement, PlaneVector, jsonio
from zonotile.lattice import integer_rows

from conftest import F2, F23, Q, V, json_mutant, rand_element


class TestElements:
    def test_zero_is_empty_list(self):
        assert jsonio.encode_element(Q.zero()) == []

    def test_terms_carry_products(self):
        x = F23.rational(Fraction(1, 2)) - F23.sqrt(6) * Fraction(2, 3)
        doc = jsonio.encode_element(x)
        assert doc == [
            {"monomial": "1", "num": "1", "den": "2"},
            {"monomial": "r6", "num": "-2", "den": "3"},
        ]

    def test_round_trip_random(self):
        import random

        rng = random.Random(37)
        for _ in range(200):
            x = rand_element(rng, F23)
            doc = jsonio.encode_element(x)
            back = jsonio.decode_element(doc, F23)
            assert back == x
            assert jsonio.encode_element(back) == doc

    def test_unknown_monomial_rejected(self):
        with pytest.raises(GeometryError):
            jsonio.decode_element([{"monomial": "r5", "num": "1", "den": "1"}], F23)
        with pytest.raises(GeometryError, match="zero denominator"):
            jsonio.decode_element([{"monomial": "r2", "num": "1", "den": "0"}], F23)
        with pytest.raises(GeometryError, match="'rx'"):
            jsonio.decode_element([{"monomial": "rx", "num": "1", "den": "1"}], F23)
        # JSON numbers must be integers, never floats or booleans
        for num, den in [(1.9, True), ("1", True), ("1.5", "1"), ("one", "1")]:
            term = {"monomial": "1", "num": num, "den": den}
            with pytest.raises(GeometryError, match="term"):
                jsonio.decode_element([term], F23)
        # a term must be an object carrying all three keys
        for term, named in [
            ("1", "term '1'"),
            (["1", "1"], r"term \['1', '1'\]"),
            ({"monomial": "1", "num": "1"}, "lacks 'den'"),
            ({"num": "1", "den": "1"}, "lacks 'monomial'"),
            ({"monomial": "1", "den": "1"}, "lacks 'num'"),
        ]:
            with pytest.raises(GeometryError, match=named):
                jsonio.decode_element([term], F23)
        back = jsonio.decode_element([{"monomial": "r6", "num": -2, "den": 3}], F23)
        assert back == F23.sqrt(6) * Fraction(-2, 3)

    def test_only_ascii_digits_are_integers(self):
        # str.isdecimal and int() take any Unicode decimal digit, and int()
        # also takes spaces, underscores and a plus sign
        for num, den in [("٣", "1"), ("１", "1"), ("-٣", "1"), ("１２３", "1"), ("1", "٣"), ("1", "１")]:
            key = "num" if num != "1" else "den"
            term = {"monomial": "r2", "num": num, "den": den}
            with pytest.raises(GeometryError, match=f"needs an integer or integer string as '{key}'"):
                jsonio.decode_element([term], F23)
        for text in [" 1", "1 ", "+1", "1_0", "--1", "-", ""]:
            with pytest.raises(GeometryError, match="needs an integer or integer string as 'num'"):
                jsonio.decode_element([{"monomial": "1", "num": text, "den": "1"}], F23)

    def test_decode_matches_the_fraction_construction(self):
        # unreduced terms, negative denominators and int-typed numerators
        # land on the same lowest-terms numerators as rational coefficients
        rng = random.Random(20261019)
        names = ["1", "r2", "r3", "r6"]
        for _ in range(2000):
            terms, coeffs = [], {}
            for mask in rng.sample(range(4), rng.randint(0, 4)):
                num = rng.randint(-40, 40) * rng.choice([1, 1, 6, 10**25])
                den = rng.choice([1, 2, 3, 4, 6, 12, 10**20 + 7]) * rng.choice([1, -1, 2, -6])
                terms.append({"monomial": names[mask], "num": num if rng.random() < 0.3 else str(num), "den": str(den)})
                coeffs[mask] = Fraction(num, den)
            x = jsonio.decode_element(terms, F23)
            y = F23.element(coeffs)
            assert (x.nums, x.den, hash(x)) == (y.nums, y.den, hash(y)), terms

    def test_duplicate_monomial_rejected(self):
        terms = [
            {"monomial": "1", "num": "1", "den": "1"},
            {"monomial": "1", "num": "2", "den": "1"},
        ]
        with pytest.raises(GeometryError):
            jsonio.decode_element(terms, F23)


FIELDS = [Q, F2, F23]


@st.composite
def element_terms(draw, field):
    """A random element of ``field`` and JSON terms for it: in any order,
    not in lowest terms, with negative denominators, int-typed num and den,
    and zero coefficients left out or written as zero terms."""
    coeffs, terms = {}, []
    for mask in range(field.size):
        c = draw(st.fractions(min_value=-20, max_value=20, max_denominator=12))
        if c or draw(st.booleans()):
            k = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
            num, den = c.numerator * k, c.denominator * k
            num = num if draw(st.booleans()) else str(num)
            den = den if draw(st.booleans()) else str(den)
            terms.append({"monomial": field.names[mask], "num": num, "den": den})
        coeffs[mask] = c
    return field.element(coeffs), draw(st.permutations(terms))


@st.composite
def vector_documents(draw):
    field = draw(st.sampled_from(FIELDS))
    vectors, docs = [], []
    for _ in range(draw(st.integers(0, 4))):
        (x, xt), (y, yt) = draw(element_terms(field)), draw(element_terms(field))
        vectors.append(PlaneVector(x, y))
        docs.append({"x": xt, "y": yt} if draw(st.booleans()) else {"y": yt, "x": xt})
    return field, vectors, docs


BAD_TERMS = [
    "1",
    {"monomial": "1", "num": "1"},
    {"num": "1", "den": "1"},
    {"monomial": "r5", "num": "1", "den": "1"},
    {"monomial": ["1"], "num": "1", "den": "1"},
    {"monomial": "1", "num": "1", "den": "0"},
    {"monomial": "1", "num": "1.5", "den": "1"},
    {"monomial": "1", "num": "٣", "den": "1"},
    {"monomial": "1", "num": 1, "den": True},
]


class TestTermReader:
    """Every element is read by one term reader, whatever holds it."""

    @settings(max_examples=300, deadline=None)
    @given(vector_documents())
    def test_rows_match_integer_rows(self, drawn):
        field, vectors, docs = drawn
        assert jsonio._decode_rows({"v": docs}, "v", field) == integer_rows(vectors)
        for v, doc in zip(vectors, docs):
            assert (jsonio.decode_element(doc["x"], field), jsonio.decode_element(doc["y"], field)) == (v.x, v.y)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FIELDS), st.sampled_from(BAD_TERMS + [None]), st.data())
    def test_a_bad_term_reads_alike_everywhere(self, field, bad, data):
        one = {"monomial": "1", "num": "1", "den": "1"}
        # None stands for a repeated monomial
        terms = data.draw(st.permutations([one, one if bad is None else bad]))
        with pytest.raises(GeometryError) as caught:
            jsonio.decode_element(terms, field)
        message = str(caught.value)
        rads = list(field.radicands)
        e1, e2 = jsonio.encode_vector(V(1, 0, field)), jsonio.encode_vector(V(0, 1, field))
        z2 = {"lattice": {"basis": [e1, e2]}}
        square = {"vertices": [jsonio.encode_vector(V(x, y, field)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]}
        documents = [
            (jsonio.decode_zonotope_document, {"field": rads, "generators": [e1, {"x": [], "y": terms}]}, "generators[1].y"),
            (jsonio.decode_lattice_document, {"field": rads, "basis": [{"x": terms, "y": []}, e2]}, "basis[0].x"),
            (
                jsonio.decode_scene_document,
                {"field": rads, "polygon": square, "lambda": {"periodic": [z2, {**z2, "offset": {"x": [], "y": terms}}]}},
                "lambda.periodic[1].offset.y",
            ),
        ]
        for decode, doc, where in documents:
            with pytest.raises(GeometryError) as caught:
                decode(doc)
            assert str(caught.value) == f"{where}: {message}"


class TestLatticeDocuments:
    def test_canonical_round_trip(self):
        lat = PlaneLattice(V(2, 1), V(1, 1))
        doc = {"field": [], **jsonio.encode_lattice(lat)}
        back = jsonio.decode_lattice_document(doc)
        assert back == lat
        assert jsonio.encode_lattice(back) == jsonio.encode_lattice(lat)

    def test_equal_lattices_encode_identically(self):
        l1 = PlaneLattice(V(1, 0), V(0, 1))
        l2 = PlaneLattice(V(3, 1), V(2, 1))
        assert jsonio.encode_lattice(l1) == jsonio.encode_lattice(l2)

    def test_field_union_on_decode(self):
        # a lattice is read in its declared field, and a zonotope read
        # against that field is widened to the union of the two
        lat = PlaneLattice(V(1, 0, F2), V(0, 1, F2))
        decoded = jsonio.decode_lattice_document({"field": [2], **jsonio.encode_lattice(lat)})
        assert decoded.field is F2
        f3 = Field([3])
        z = Zonotope([V(1, 0, f3), V(0, f3.sqrt(3), f3)])
        widened = jsonio.decode_zonotope_document(jsonio.encode_zonotope(z), field=decoded.field)
        assert widened.field.radicands == (2, 3)


class TestZonotopeDocuments:
    def test_generator_round_trip(self):
        z = Zonotope([V(1, 0), V(1, 1), V(0, 1), V(-1, 1)])
        doc = jsonio.encode_zonotope(z)
        back = jsonio.decode_zonotope_document(doc)
        assert [(g.x, g.y) for g in back.generators] == [(g.x, g.y) for g in z.generators]
        assert jsonio.dumps(jsonio.encode_zonotope(back)) == jsonio.dumps(doc)

    def test_vertex_form(self):
        doc = {
            "field": [],
            "vertices": [
                jsonio.encode_vector(V(x, y))
                for x, y in [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
            ],
        }
        z = jsonio.decode_zonotope_document(doc)
        assert [(g.x, g.y) for g in z.generators] == [(1, 0), (1, 1), (0, 1), (-1, 1)]

    def test_vertex_form_builds_no_field_element(self, monkeypatch):
        # the vertex rows go to the zonotope's checks as they are read
        r2 = F23.sqrt(2)
        z = Zonotope([V(1, 0, F23).scale(r2), V(1, 1, F23), V(0, Fraction(1, 3), F23), PlaneVector(-r2, F23.sqrt(3))])
        doc = {"field": [2, 3], "vertices": [jsonio.encode_vector(v) for v in z.vertices()]}
        calls = []
        from_integers = FieldElement.from_integers.__func__

        def counted(cls, *args):
            calls.append(args)
            return from_integers(cls, *args)

        monkeypatch.setattr(FieldElement, "from_integers", classmethod(counted))
        back = jsonio.decode_zonotope_document(doc)
        assert calls == []
        assert (back.rows, back.den) == (z.rows, z.den)

    def test_missing_keys_rejected(self):
        with pytest.raises(GeometryError):
            jsonio.decode_zonotope_document({"field": []})
        # a string is not a radicand list, even when its characters are digits
        for field in ["23", [2, "3"], [2.0], [True]]:
            with pytest.raises(GeometryError, match="'field' must be a list"):
                jsonio.decode_zonotope_document({"field": field, "generators": []})


class TestSharedFields:
    def test_documents_over_one_field_share_it(self):
        z = Zonotope([V(1, 0, F23), V(1, 1, F23), V(0, 1, F23), V(-F23.sqrt(6), 1, F23)])
        doc = json.loads(jsonio.dumps(jsonio.encode_zonotope(z)))
        first = jsonio.decode_zonotope_document(doc)
        # radicands in another order name the same field
        second = jsonio.decode_zonotope_document(dict(doc, field=[3, 2]))
        lattice = jsonio.decode_lattice_document(
            {"field": [2, 3], "basis": [jsonio.encode_vector(V(1, 0, F23)), jsonio.encode_vector(V(0, 1, F23))]}
        )
        assert first.field is second.field is lattice.field
        assert first.field.radicands == (2, 3)

    def test_refusals_are_unchanged(self):
        refused = [
            ([4], "^field: radicand 4 is not squarefree"),
            ([1], "^field: radicand 1 must be an integer >= 2"),
            ([3, 3], r"^field: duplicate radicand in \(3, 3\)"),
            ([2, 3, 6], r"^field: radicands \(2, 3, 6\) are multiplicatively dependent"),
            ([2, 3, 5, 7, 11], "^field: at most 4 radicands supported, got 5"),
        ]
        for rads, message in refused:
            # a refused field is not cached: the second document fails alike
            for _ in range(2):
                with pytest.raises(FieldError, match=message):
                    jsonio.decode_zonotope_document({"field": rads, "generators": []})


class TestSceneDocuments:
    def test_periodic_scene_round_trip(self):
        lat = PlaneLattice(V(1, 0), V(0, 2))
        doc = {
            "field": [],
            "polygon": {
                "vertices": [
                    jsonio.encode_vector(V(x, y))
                    for x, y in [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]
                ]
            },
            "lambda": {
                "periodic": [
                    {"lattice": jsonio.encode_lattice(lat)},
                    {
                        "lattice": jsonio.encode_lattice(lat),
                        "offset": jsonio.encode_vector(V(Fraction(1, 3), 1)),
                    },
                ]
            },
            "mode": "exact",
        }
        poly, tset, window = jsonio.decode_scene_document(doc)
        assert window is None
        assert tset.is_periodic and len(tset.lattices) == len(tset.rows) == 2
        assert tset.rows == ((0, 0), (1, 3)) and tset.den == 3
        assert len(poly.vertices) == 8

    def test_a_vertex_polygon_is_its_rows(self):
        # read clockwise, kept counterclockwise, as the vector constructor does
        square = [(0, 0), (0, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 3), 0)]
        doc = {
            "field": [],
            "polygon": {"vertices": [jsonio.encode_vector(V(x, y)) for x, y in square]},
            "lambda": {"periodic": [{"lattice": jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))}]},
        }
        poly, _, _ = jsonio.decode_scene_document(doc)
        expected = Polygon([V(x, y) for x, y in square])
        assert (poly.vertices, poly.rows, poly.den) == (expected.vertices, expected.rows, expected.den)
        assert [(v.x, v.y) for v in poly.vertices][:2] == [(Fraction(1, 3), 0), (Fraction(1, 3), Fraction(1, 2))]

    def test_builtin_scene(self):
        doc = {"lambda": {"builtin": "tetromino-L2", "window": [-6, -6, 6, 6]}}
        poly, tset, window = jsonio.decode_scene_document(doc)
        assert not tset.is_periodic
        assert window == tset.window == (-6, -6, 6, 6) and tset.field is RATIONALS and tset.den == 1
        # L2: the even points on or below the diagonal, the odd ones above it, column by column
        expected = [(m, n) for m in range(-6, 7) for n in range(-6, 7)
                    if (m % 2 == n % 2 == 0 and m >= n) or (m % 2 == n % 2 == 1 and m < n)]
        assert list(tset.rows) == expected and tset.weights == (1,) * len(expected)

    def test_builtin_scene_with_sqrt_beta(self):
        doc = {
            "field": [2],
            "lambda": {
                "builtin": "octagon-family",
                "beta": [{"monomial": "r2", "num": "1", "den": "1"}],
            },
        }
        poly, tset, _ = jsonio.decode_scene_document(doc)
        assert tset.is_periodic
        # the offsets (0, 0) and (sqrt2, 1), numerators of 1 and r2 per axis
        assert tset.rows == ((0, 0, 0, 0), (0, 1, 1, 0)) and tset.den == 1

    def test_unknown_builtin_rejected(self):
        with pytest.raises(GeometryError):
            jsonio.decode_scene_document({"lambda": {"builtin": "pentomino"}})

    def test_a_polygon_list_that_is_not_a_list_names_its_location(self):
        # named as lattice bases inside a scene are: where.key, not 'key'
        for key in ["vertices", "generators"]:
            doc = {"field": [], "polygon": {key: "1"}, "lambda": {"periodic": []}}
            with pytest.raises(GeometryError) as caught:
                jsonio.decode_scene_document(doc)
            assert str(caught.value) == f"polygon.{key} must be a list of {{x, y}} objects, got '1'"


class TestParsers:
    def test_parse_rational(self):
        assert jsonio.parse_rational("3/4") == Fraction(3, 4)
        assert jsonio.parse_rational(-2) == -2
        with pytest.raises(GeometryError):
            jsonio.parse_rational("abc")
        with pytest.raises(GeometryError):
            jsonio.parse_rational(True)
        for text in ["1/0", "1/0 + sqrt(2)", "1/0*sqrt(2)"]:
            with pytest.raises(GeometryError, match="'1/0'"):
                jsonio.parse_element_text(text)

    def test_parse_element_text(self):
        x = jsonio.parse_element_text("1/2 + 3*sqrt(2) - sqrt(6)")
        f = x.field
        assert f.radicands == (2, 6)
        assert x == f.rational(Fraction(1, 2)) + f.sqrt(2) * 3 - f.sqrt(6)

    def test_parse_element_text_reads_dependent_radicands_in_the_field(self):
        x = jsonio.parse_element_text("sqrt(2) + sqrt(3) + sqrt(6)")
        f = x.field
        assert f.radicands == (2, 3)
        assert x == f.sqrt(2) + f.sqrt(3) + f.sqrt(6)
        y = jsonio.parse_element_text("sqrt(15) - sqrt(6) + 2*sqrt(10)")
        g = y.field
        assert g.radicands == (6, 10)
        # sqrt(15) = sqrt(60) / 2, and it squares to 15
        assert y == g.sqrt(60) * Fraction(1, 2) - g.sqrt(6) + g.sqrt(10) * 2
        assert (g.sqrt(60) * Fraction(1, 2)) * (g.sqrt(60) * Fraction(1, 2)) == g.rational(15)
        for text, named in [
            ("sqrt(2) + sqrt(3) + sqrt(5) + sqrt(7) + sqrt(11)", "at most 4 radicands"),
            ("sqrt(2) + sqrt(18)", "radicand 18 is not squarefree"),
        ]:
            with pytest.raises(GeometryError, match=named):
                jsonio.parse_element_text(text)

    def test_parse_element_text_rational_only(self):
        x = jsonio.parse_element_text("-7/3")
        assert x.rational_value() == Fraction(-7, 3)

    def test_dumps_is_stable(self):
        doc = {"b": 1, "a": [1, 2]}
        assert jsonio.dumps(doc) == jsonio.dumps(json.loads(jsonio.dumps(doc)))


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.text(alphabet=st.sampled_from(["a", "z", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "𝄞"])),
)
json_documents = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20,
)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_documents)
    def test_matches_the_stdlib(self, doc):
        assert jsonio.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_other_types_refused(self):
        for doc in (Fraction(1, 2), {"a": Fraction(1, 2)}, [1.5], {1: "a"}, (1, 2)):
            with pytest.raises(TypeError):
                jsonio.dumps(doc)

    def test_writes_integers_past_the_digit_limit(self):
        # str() refuses more than sys.get_int_max_str_digits() digits (4,300
        # by default); the writer and the term encoder do not
        cases = [
            (10**5000 + 7, "1" + "0" * 4999 + "7"),
            (-2 * 10**9999, "-2" + "0" * 9999),
            (10**4301 - 1, "9" * 4301),
            (-123456789 * (10**6300 - 1) // (10**9 - 1), "-" + "123456789" * 700),
        ]
        for n, text in cases:
            assert jsonio.dumps([n, {"n": n}]) == f'[\n  {text},\n  {{\n    "n": {text}\n  }}\n]\n'
            assert jsonio.encode_element(Q.rational(n)) == [{"monomial": "1", "num": text, "den": "1"}]
        tiny = jsonio.encode_element(Q.rational(Fraction(-1, 10**4400)))
        assert tiny == [{"monomial": "1", "num": "-1", "den": "1" + "0" * 4400}]

    def test_writes_integers_past_the_least_digit_limit(self, long_integers):
        for n, text in long_integers:
            assert jsonio.dumps([n]) == f"[\n  {text}\n]\n"
            assert jsonio.encode_element(Q.rational(n)) == [{"monomial": "1", "num": text, "den": "1"}]

    def test_leaves_no_cyclic_garbage(self):
        doc = {"field": [2], "generators": [jsonio.encode_vector(V(1, F2.sqrt(2) / 3, F2))] * 3, "ok": True}
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                jsonio.dumps(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMutatedDocuments:
    """Type and shape mutants of valid documents (``json_mutant``) raise
    only ZonotileError.  No mutant holds a large number, so none asks for
    unbounded work."""

    @staticmethod
    def seeds():
        z = Zonotope([V(1, 0, F2), V(1, 1, F2), V(0, F2.sqrt(2), F2)])
        lat = PlaneLattice(V(1, 0, F2), V(Fraction(1, 2), F2.sqrt(2), F2))
        square = [jsonio.encode_vector(V(x, y)) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        z2 = jsonio.encode_lattice(PlaneLattice(V(1, 0), V(0, 1)))
        offset = jsonio.encode_vector(V(Fraction(1, 3), 1))
        periodic = {
            "field": [],
            "polygon": {"vertices": square},
            "lambda": {"periodic": [{"lattice": z2}, {"lattice": z2, "offset": offset}]},
        }
        beta = F2.sqrt(2) + Fraction(1, 3)
        return [
            (jsonio.decode_zonotope_document, jsonio.encode_zonotope(z)),
            (jsonio.decode_lattice_document, {"field": [2], **jsonio.encode_lattice(lat)}),
            (jsonio.decode_scene_document, periodic),
            (jsonio.decode_scene_document, jsonio.encode_scene_builtin("tetromino-L1", (-3, -3, 3, 3), None)),
            (jsonio.decode_scene_document, jsonio.encode_scene_builtin("octagon-family", None, beta)),
            (lambda doc: jsonio.decode_window(doc.get("window"), "window"), {"window": ["-3", "-3", "3", "3"]}),
        ]

    def test_only_zonotile_errors(self):
        rng = random.Random(20261018)
        for decode, doc in self.seeds():
            decode(doc)
            for _ in range(100):
                mutant = json_mutant(rng, doc)
                try:
                    decode(mutant)
                except ZonotileError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{type(exc).__name__}: {exc} on {json.dumps(mutant)}")
