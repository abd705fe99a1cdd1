import gc
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    complex_tensor_oracle,
    emit_dilation_oracle,
    emit_instance_oracle,
    load_oracle,
    structure_oracle,
    tensor_text_oracle,
)
from test_acceptance import acceptance_instances
from cpdilate import cli, serialize
from cpdilate.algebra import AlgebraDescriptor, ModuleDescriptor
from cpdilate.cpmaps import (
    CPBlockMap,
    Instance,
    ModuleCPTuple,
    haar_unitary,
    identity_instance,
    random_instance,
)
from cpdilate.dilation import dilate
from cpdilate.equivalence import rotate_dilation
from cpdilate.errors import ParseError
from cpdilate.serialize import emit_dilation, emit_instance, parse_dilation, parse_instance

DATA = Path(__file__).parent / "data"
GOLDEN_INSTANCE = DATA / "golden_instance.json"
GOLDEN_DILATION = DATA / "golden_dilation.json"
# every list level of both instance tensors of the golden file (shapes
# (2, 2, 5, 2, 2) and (2, 2, 4, 2), then the [re, im] pair); level 0 is
# the tensor itself
TENSOR_LEVELS = [("cp_action", level) for level in range(6)] + [
    ("tuple_action", level) for level in range(5)]
NODE_KINDS = ["number", "true", "null", "string", "object"]


class TestInstanceRoundTrip:
    def test_bit_exact(self):
        inst = random_instance(7, n=2, block_dims=[2, 1], mults=[1, 0], h1=2, h2=3)
        text = emit_instance(inst)
        back = parse_instance(text)
        assert np.array_equal(back.cp.action, inst.cp.action)
        assert np.array_equal(back.tup.action, inst.tup.action)
        assert back.meta == inst.meta
        assert emit_instance(back) == text

    def test_identity_instance(self):
        inst = identity_instance(3)
        back = parse_instance(emit_instance(inst))
        assert np.array_equal(back.cp.action, inst.cp.action)
        assert back.algebra.block_dims == (3,)

    def test_deterministic_bytes(self):
        a = random_instance(5, n=1, block_dims=[2], mults=[1], h1=2, h2=2)
        b = random_instance(5, n=1, block_dims=[2], mults=[1], h1=2, h2=2)
        assert emit_instance(a) == emit_instance(b)


class TestDilationRoundTrip:
    def test_bit_exact(self):
        inst = random_instance(9, n=2, block_dims=[2], mults=[1], h1=2, h2=3)
        data = dilate(inst)
        text = emit_dilation(inst, data)
        back, context = parse_dilation(text)
        assert back.r1 == data.r1 and back.r2 == data.r2
        assert np.array_equal(back.pi_action, data.pi_action)
        assert np.array_equal(back.s_ops, data.s_ops)
        assert np.array_equal(back.psi_action, data.psi_action)
        assert np.array_equal(back.k2_embed, data.k2_embed)
        assert all(np.array_equal(w1, w2) for w1, w2 in zip(back.w_ops, data.w_ops))
        assert context["block_dims"] == [2]
        assert emit_dilation(inst, back) == text

    def test_zero_rank_dilation(self):
        desc = AlgebraDescriptor((2,))
        mdesc = ModuleDescriptor(desc, (1,))
        inst = Instance(
            CPBlockMap(desc, 1, 2, np.zeros((1, 1, 4, 2, 2))),
            ModuleCPTuple(mdesc, 1, 2, 3, np.zeros((1, 2, 3, 2))),
        )
        data = dilate(inst)
        back, _ = parse_dilation(emit_dilation(inst, data))
        assert back.r1 == 0 and back.r2 == 0
        assert back.pi_action.shape == (4, 0, 0)
        assert back.w_ops[0].shape == (0, 3)


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_instance("{not json")

    def test_wrong_format_tag(self):
        inst = identity_instance(1)
        text = emit_instance(inst).replace("cpdilate/instance", "cpdilate/other")
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_wrong_version(self):
        inst = identity_instance(1)
        text = emit_instance(inst).replace('"version":1', '"version":99')
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_instance('{"format":"cpdilate/instance","version":1,"n":1}')

    def test_shape_mismatch(self):
        inst = identity_instance(2)
        text = emit_instance(inst).replace('"h1":2', '"h1":3')
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_instance_file_is_not_a_dilation(self):
        with pytest.raises(ParseError):
            parse_dilation(emit_instance(identity_instance(1)))

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_version_must_be_an_integer(self, version):
        text = emit_instance(identity_instance(1)).replace('"version":1', f'"version":{version}')
        with pytest.raises(ParseError, match="field 'version'"):
            parse_instance(text)
        with pytest.raises(ParseError, match="field 'version'"):
            parse_dilation(GOLDEN_DILATION.read_text(encoding="utf-8").replace(
                '"version":1', f'"version":{version}'))

    @pytest.mark.parametrize("field", ["pi_welldef", "psi_welldef"])
    @pytest.mark.parametrize("value", ['"nan"', '"1e-3"', "true", "null", "[0.0]"])
    def test_welldef_residual_must_be_a_number(self, field, value):
        payload = load_oracle(GOLDEN_DILATION.read_bytes())
        payload[field] = "@"
        text = json.dumps(payload).replace('"@"', value)
        with pytest.raises(ParseError, match=f"field '{field}'"):
            parse_dilation(text)

    @pytest.mark.parametrize("field", ["pi_welldef", "psi_welldef"])
    def test_missing_welldef_residual_reads_as_zero(self, field):
        payload = load_oracle(GOLDEN_DILATION.read_bytes())
        del payload[field]
        data, _ = parse_dilation(json.dumps(payload))
        assert getattr(data, field) == 0.0

    def test_lone_surrogate_escape(self):
        text = GOLDEN_INSTANCE.read_text(encoding="utf-8").replace('"meta":{', '"meta":{"x":"\\ud800",')
        assert load_oracle(text)["meta"]["x"] == "\ud800"  # the former reader took it
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_instance(text)
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_instance("\ud800".join(text.rsplit("\\ud800", 1)))

    def test_nesting_beyond_the_limit(self):
        depth = serialize.MAX_DEPTH + 1
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_instance(b"[" * depth + b"]" * depth)
        nested = GOLDEN_INSTANCE.read_bytes().replace(
            b'"meta":{', b'"meta":{"x":' + b"[" * depth + b"]" * depth + b",")
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_instance(nested)

    @pytest.mark.parametrize("literal", ['"1.5"', "true", "false", "null", "{}", "[1.5]"])
    def test_tensor_entry_must_be_a_number(self, literal):
        with pytest.raises(ParseError, match="tensor entries must be JSON numbers"):
            parse_instance(tensor_entry_replaced(literal))

    @pytest.mark.parametrize("kind", NODE_KINDS)
    @pytest.mark.parametrize("key, level", TENSOR_LEVELS)
    def test_list_level_holding_no_list(self, key, level, kind):
        with pytest.raises(ParseError):
            parse_instance(tensor_node_replaced(key, level, kind))

    @pytest.mark.parametrize("edit", ["short pair", "long pair", "short row", "swapped rows"])
    def test_ragged_tensor_is_rejected(self, edit):
        with pytest.raises(ParseError, match="tensor nesting does not match declared shape"):
            parse_instance(tensor_made_ragged(edit))

    def test_integer_entries_read_as_floats(self):
        back = parse_instance(tensor_entry_replaced("-3"))
        assert bitwise_equal(np.float64(back.cp.action[0, 0, 0, 0, 0].real), np.float64(-3.0))

    def test_nesting_at_the_limit_parses(self):
        depth = serialize.MAX_DEPTH - 2  # inside "meta" inside the top-level object
        text = GOLDEN_INSTANCE.read_bytes().replace(
            b'"meta":{', b'"meta":{"x":' + b"[" * depth + b"]" * depth + b",")
        assert parse_instance(text).meta["x"] == load_oracle(text)["meta"]["x"]


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    """The cyclic collector enabled or disabled by the caller, and put back
    as it was after the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestReadersLeaveTheCollectorAsFound:
    """The readers pause the cyclic collector and restore the caller's
    state, on success and on ParseError."""

    def test_success(self, gc_state):
        parse_instance(GOLDEN_INSTANCE.read_bytes())
        assert gc.isenabled() is gc_state
        parse_dilation(GOLDEN_DILATION.read_bytes())
        assert gc.isenabled() is gc_state

    @pytest.mark.parametrize("text", [b"{not json", b"[]", GOLDEN_DILATION.read_bytes()])
    def test_parse_error(self, gc_state, text):
        with pytest.raises(ParseError):
            parse_instance(text)
        assert gc.isenabled() is gc_state
        with pytest.raises(ParseError):
            parse_dilation(text.replace(b"cpdilate/dilation", b"cpdilate/other"))
        assert gc.isenabled() is gc_state

    def test_collector_is_paused_while_reading(self, monkeypatch):
        seen = []
        loads = serialize.orjson.loads

        def recording_loads(text):
            seen.append(gc.isenabled())
            return loads(text)

        monkeypatch.setattr(serialize.orjson, "loads", recording_loads)
        gc.enable()
        parse_instance(GOLDEN_INSTANCE.read_bytes())
        parse_dilation(GOLDEN_DILATION.read_bytes())
        assert seen == [False, False] and gc.isenabled()


def tensor_entry_replaced(literal: str) -> str:
    """The golden instance with its first ``cp_action`` number replaced
    by a literal text."""
    payload = load_oracle(GOLDEN_INSTANCE.read_bytes())
    payload["cp_action"][0][0][0][0][0][0] = "@"
    return json.dumps(payload).replace('"@"', literal)


def tensor_node_replaced(key: str, level: int, kind: str) -> str:
    """The golden instance with the first node at list ``level`` of
    tensor ``key`` replaced by a JSON value that is no list: a number,
    ``true``, ``null``, or a string or an object of the declared length."""
    payload = load_oracle(GOLDEN_INSTANCE.read_bytes())
    parent, index = payload, key
    for _ in range(level):
        parent, index = parent[index], 0
    length = len(parent[index])
    parent[index] = {"number": 1.5, "true": True, "null": None, "string": "x" * length,
                     "object": {str(k): 0.0 for k in range(length)}}[kind]
    return json.dumps(payload)


def tensor_made_ragged(edit: str) -> str:
    """The golden instance with the nesting of ``cp_action`` broken, the
    number of entries kept where the edit allows it."""
    payload = load_oracle(GOLDEN_INSTANCE.read_bytes())
    rows = payload["cp_action"][0][0][0]  # (h1, h1, 2) of the first phi_00(e_00)
    if edit == "short pair":
        rows[0][0] = rows[0][0][:1]
    elif edit == "long pair":
        rows[0][0] = rows[0][0] + [0.0]
    elif edit == "short row":  # one pair moved to the next row
        rows[1].insert(0, rows[0].pop())
    else:  # a whole row where a pair belongs, and a pair where a row belongs
        rows[0][0], rows[1] = rows[1], rows[0][0]
    return json.dumps(payload)


def json_depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(json_depth, value), default=0)
    return 0


TRICKY_TEXT = st.text(alphabet='[]{}"\\/ab\u00e9\n', max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TRICKY_TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TRICKY_TEXT, kids, max_size=3),
    max_leaves=30,
)


def holds_literal(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(holds_literal, value))
    return isinstance(value, bool)


# strings full of what the structural pass keeps or drops: brackets,
# quotes, escapes, the letters of true/false and the \t and \f escapes
LITERAL_TEXT = st.text(alphabet='[]{}"\\/tf\t\f ab\u00e9\n', max_size=8)
LITERAL_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | LITERAL_TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(LITERAL_TEXT, kids, max_size=3),
    max_leaves=30,
)


class TestNestingDepth:
    """The pre-parse structural pass counts only brackets outside strings
    and reports a ``true``/``false`` literal outside strings."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES, st.booleans())
    def test_matches_the_parsed_structure(self, value, ascii_only):
        text = json.dumps(value, ensure_ascii=ascii_only).encode("utf-8")
        assert serialize._nesting_depth(text)[0] == json_depth(value)

    def test_brackets_and_escapes_in_strings(self):
        text = json.dumps({"a": ["[[[\\", '\\"{{', "]]]\"\\"], "b": "\\"}).encode()
        assert serialize._nesting_depth(text) == (2, False)

    @settings(max_examples=300, deadline=None)
    @given(LITERAL_VALUES, st.booleans(), st.sampled_from([None, 1]))
    def test_matches_a_plain_scanner(self, value, ascii_only, indent):
        text = json.dumps(value, ensure_ascii=ascii_only, indent=indent).encode("utf-8")
        assert serialize._nesting_depth(text) == structure_oracle(text)
        assert structure_oracle(text) == (json_depth(value), holds_literal(value))


def meta_replaced(meta: dict, entry: str | None = None) -> str:
    """The golden instance with ``meta`` replaced and, if given, its first
    ``cp_action`` number replaced by the literal text ``entry``."""
    payload = load_oracle(GOLDEN_INSTANCE.read_bytes())
    payload["meta"] = meta
    if entry is None:
        return json.dumps(payload)
    payload["cp_action"][0][0][0][0][0][0] = "@"
    return json.dumps(payload).replace('"@"', entry)


NOT_A_NUMBER = "instance: tensor entries must be JSON numbers"


class TestLiteralAwareReader:
    """Entries are converted by ``array``, with the type pass for ``bool``
    only when the structural pass saw a literal; values and messages are
    the former reader's."""

    @pytest.mark.parametrize("meta", [{}, {"flag": False}, {"flags": [True, None]}])
    @pytest.mark.parametrize("entry", ["true", "false"])
    def test_boolean_entry_is_refused_with_or_without_another_literal(self, meta, entry):
        with pytest.raises(ParseError) as info:
            parse_instance(meta_replaced(meta, entry))
        assert str(info.value) == NOT_A_NUMBER
        text = GOLDEN_DILATION.read_text(encoding="utf-8")
        first = text.index('"pi_action":[[[[') + len('"pi_action":[[[[')
        text = text[:first] + entry + text[text.index(",", first):]
        with pytest.raises(ParseError, match="^dilation: tensor entries must be JSON numbers$"):
            parse_dilation(text)

    @pytest.mark.parametrize("entry", ['"1.5"', "null", "{}", '{"0": 1.5}', "[1.5]", '"true"'])
    def test_other_entries_keep_the_message(self, entry):
        for meta in ({}, {"flag": True}):
            with pytest.raises(ParseError) as info:
                parse_instance(meta_replaced(meta, entry))
            assert str(info.value) == NOT_A_NUMBER

    @pytest.mark.parametrize("note", ["true", "false", "\t", "\f", "][", "t]f[", "\\t"])
    def test_literal_like_strings_change_nothing(self, note):
        golden = parse_instance(GOLDEN_INSTANCE.read_bytes())
        text = meta_replaced({"note": note, "n": [note, {"tf": note}]})
        assert serialize._nesting_depth(text.encode())[1] is False
        back = parse_instance(text)
        assert bitwise_equal(back.cp.action, golden.cp.action)
        assert bitwise_equal(back.tup.action, golden.tup.action)
        assert back.meta == {"note": note, "n": [note, {"tf": note}]}
        with pytest.raises(ParseError) as info:
            parse_instance(meta_replaced({"note": note}, "true"))
        assert str(info.value) == NOT_A_NUMBER

    @pytest.mark.parametrize("meta", [{}, {"flag": True}])
    @pytest.mark.parametrize("entry", ["-0.0", "-0", "0", "9007199254740993", "-9223372036854775808",
                                       "18446744073709551615", "1e-320", "-1.7976931348623157e308"])
    def test_entries_keep_their_bits(self, meta, entry):
        back = parse_instance(meta_replaced(meta, entry))
        expected = complex_tensor_oracle(load_oracle(meta_replaced(meta, entry))["cp_action"],
                                         back.cp.action.shape)
        assert bitwise_equal(back.cp.action, expected)
        assert bitwise_equal(np.float64(back.cp.action[0, 0, 0, 0, 0].real),
                             np.float64(float(json.loads(entry))))


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bit patterns, so -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Floats whose text json writes in unusual forms: signed zeros, the
# smallest subnormal and other subnormals, the largest finite values,
# exponent switch points with their neighbours one ulp away (orjson
# switches layout at 1e-5 where repr does at 1e-4; both at 1e16),
# one-digit exponents, a "0.0000" inside a token, and integer values.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, -1e16, 1e-05,
    0.0001, 1e15, 9007199254740993.0, 1.0, -1.0, 2.0, -3.0, 0.1, 1 / 3,
    9.999999999999999e-06, 1.0000000000000003e-05, -9.999999999999999e-05,
    0.00010000000000000002, 9999999999999998.0, -1.0000000000000002e16,
    9.999999999999998e16, 1e17, 1e-06, -1e-07, 50000000000.00001,
]
FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
SHAPES = st.lists(st.sampled_from([0, 1, 1, 2, 3]), min_size=0, max_size=4).map(tuple)


@st.composite
def repeated_rows(draw) -> np.ndarray:
    """A float array (..., width, 2) whose rows over the last two axes
    are drawn from a pool of one to three rows, so rows repeat."""
    outer = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    width = draw(st.integers(1, 5))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 3)), width, 2), elements=FLOATS))
    picks = draw(arrays(np.intp, tuple(outer), elements=st.integers(0, len(pool) - 1)))
    return pool[picks]


def complex_tensor(pairs: np.ndarray) -> np.ndarray:
    """Complex view of a float array whose last axis holds (re, im)."""
    return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]


class TestEncoderEquivalence:
    """Tensor text is byte for byte what the former json.dumps encoder
    (tests/conftest.py) wrote."""

    def test_acceptance_instances_and_rotated_twins(self):
        rng = np.random.default_rng(31)
        for inst in acceptance_instances(100):
            assert emit_instance(inst) == emit_instance_oracle(inst)
            data = dilate(inst)
            twin = rotate_dilation(
                data,
                haar_unitary(rng, data.r1),
                haar_unitary(rng, data.r2),
                [haar_unitary(rng, k) for k in data.k2i_dims],
            )
            for d in (data, twin):
                assert emit_dilation(inst, d) == emit_dilation_oracle(inst, d)

    @settings(max_examples=300, deadline=None)
    @given(SHAPES.flatmap(lambda shape: arrays(np.float64, shape + (2,), elements=FLOATS)))
    def test_property_against_the_former_encoder(self, pairs):
        tensor = complex_tensor(pairs)
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)
        assert serialize._tensor_text(tensor.real) == tensor_text_oracle(tensor.real)

    @settings(max_examples=300, deadline=None)
    @given(repeated_rows())
    def test_property_with_repeated_rows(self, pairs):
        tensor = complex_tensor(pairs)
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)
        back = serialize._decode_complex(json.loads(serialize._tensor_text(tensor)),
                                         tensor.shape, "tensor")
        assert bitwise_equal(back, tensor)

    def test_long_rows_beyond_one_integer_key(self):
        # 40 pairs a row over about 60 distinct pairs: the row key is
        # refactorized several times before it could overflow
        rng = np.random.default_rng(5)
        rows = rng.integers(-30, 30, size=(4, 40)) + 1j * rng.integers(0, 2, size=(4, 40))
        tensor = rows[[0, 1, 0, 2, 3, 3, 1, 0]].reshape(2, 4, 40) / 8
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)

    @settings(max_examples=100, deadline=None)
    @given(SHAPES.flatmap(lambda shape: arrays(np.float64, shape + (2,), elements=FLOATS)))
    def test_round_trip_keeps_every_bit(self, pairs):
        tensor = complex_tensor(pairs)
        back = serialize._decode_complex(json.loads(serialize._tensor_text(tensor)),
                                         tensor.shape, "tensor")
        assert bitwise_equal(back, tensor)

    def test_few_distinct_values_in_long_runs(self):
        tensor = np.zeros((7, 5, 9), dtype=complex)
        tensor[::2, 1, ::3] = -0.0 - 1j
        tensor[3, :, 4] = 1e16 + 5e-324j
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)
        assert serialize._tensor_text(tensor.transpose(2, 0, 1)) == tensor_text_oracle(
            tensor.transpose(2, 0, 1)
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
    def test_non_finite_values_raise(self, bad):
        inst = random_instance(3, n=1, block_dims=[2], mults=[1], h1=2, h2=2)
        data = dilate(inst)
        data.k2_embed[-1, 0] = bad
        with pytest.raises(ValueError):
            emit_dilation(inst, data)
        with pytest.raises(ValueError):
            emit_dilation_oracle(inst, data)
        inst.cp.action[0, 0, 1, 1, 0] = bad
        with pytest.raises(ValueError):
            emit_instance(inst)
        with pytest.raises(ValueError):
            emit_instance_oracle(inst)


def one_ulp_around(values: np.ndarray) -> np.ndarray:
    """Each value, its neighbours one ulp away, and their negatives."""
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


class TestWriterSweep:
    """The orjson writer against the former encoder on number spellings:
    random bit patterns, every decade at one ulp, subnormals and zeros."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(22).integers(0, 2**64, size=200_000, dtype=np.uint64)
        floats = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
        tensor = complex_tensor(floats[: len(floats) // 8 * 8].reshape(-1, 4, 2))
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)

    def test_every_decade_at_one_ulp(self):
        decades = np.array([float(f"1e{e}") for e in range(-330, 309)])
        values = one_ulp_around(decades)
        values = values[: len(values) // 6 * 6]
        for tensor in (complex_tensor(values.reshape(-1, 2)), values.reshape(-1, 3)):
            assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)

    def test_layout_switches_in_one_dimension(self):
        tensor = complex_tensor(one_ulp_around(np.array([1e-5, 1e-4, 1e16, 1e17])).reshape(-1, 2))
        assert tensor.ndim == 1
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)

    def test_subnormals_and_zeros(self):
        bits = np.random.default_rng(23).integers(1, 2**52, size=2_000, dtype=np.uint64)
        subnormals = np.concatenate([bits.view(np.float64), [5e-324, 2.225073858507201e-308]])
        values = np.concatenate([subnormals, -subnormals, [0.0, -0.0, -0.0, 0.0]])
        tensor = complex_tensor(values.reshape(-1, 3, 2))
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (0,), (3, 0), (0, 2), (2, 0, 3), (2, 3, 0)])
    def test_scalars_one_dimension_and_zero_axes(self, shape):
        rng = np.random.default_rng(24)
        tensor = rng.standard_normal(shape) * 1e-5 + 1j * rng.standard_normal(shape) * 1e16
        assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)


# the gated dilate_large instance shape and the n=4, A=M_16 one
GATED_SHAPE = dict(n=3, block_dims=[8], mults=[2], h1=4, h2=12, k1_extra=1)
M16_SHAPE = dict(n=4, block_dims=[16], mults=[2], h1=6, h2=24, k1_extra=2)


def rows_reaching_orjson(monkeypatch, tensor) -> int:
    """How many rows ``_tensor_text`` of the tensor hands to ``orjson.dumps``."""
    dumps, dumped = serialize.orjson.dumps, []

    def spy(value, **options):
        dumped.append(len(value))
        return dumps(value, **options)

    monkeypatch.setattr(serialize.orjson, "dumps", spy)
    serialize._tensor_text(tensor)
    monkeypatch.setattr(serialize.orjson, "dumps", dumps)
    [count] = dumped
    return count


class TestDistinctRows:
    """Rows are merged by a hash of their bit patterns, checked row by row."""

    def test_colliding_hash_keeps_the_bytes(self, monkeypatch):
        monkeypatch.setattr(serialize, "_row_hash", lambda words: np.zeros(len(words), np.uint64))
        data = dilate(random_instance(1, **GATED_SHAPE))
        signed_zeros = np.zeros((4, 3), dtype=complex)
        signed_zeros[1, 2] = complex(-0.0, 0.0)
        signed_zeros[3, 0] = complex(0.0, -0.0)
        for tensor in (data.pi_action, data.psi_action, signed_zeros):
            assert serialize._tensor_text(tensor) == tensor_text_oracle(tensor)
            assert rows_reaching_orjson(monkeypatch, tensor) == tensor[..., 0].size

    @pytest.mark.parametrize("shape, distinct", [(GATED_SHAPE, 17), (M16_SHAPE, 49)])
    def test_closed_forms_reach_orjson_as_distinct_rows(self, monkeypatch, shape, distinct):
        # E_pq (x) 1 rows: the zero row and one row per unit vector of K1
        data = dilate(random_instance(1, **shape))
        assert data.r1 + 1 == distinct
        for tensor in (data.pi_action, data.psi_action):
            assert rows_reaching_orjson(monkeypatch, tensor) == distinct

    def test_rows_of_small_powers_of_two_stay_apart(self, monkeypatch):
        # their words end in 52 zero bits; a hash that multiplies before it
        # folds the high bits down collided on about 3 % of these rows
        powers = np.array([0.0, 0.5, 1.0, 2.0, 0.25, 4.0])
        rows = powers[np.indices((6,) * 6).reshape(6, -1).T]
        tensor = complex_tensor(rows[np.tile(np.arange(len(rows)), 2)].reshape(-1, 3, 2))
        assert rows_reaching_orjson(monkeypatch, tensor) == len(rows)


def spelled(pairs: np.ndarray, fmt) -> str:
    """Nested JSON text of a float array with each number written by ``fmt``."""
    if pairs.ndim == 0:
        return fmt(float(pairs))
    return "[" + ",".join(spelled(p, fmt) for p in pairs) + "]"


# The writer's spelling (repr) and other correctly rounded ones a reader
# must accept: 17 significant digits, and exponent forms.
SPELLINGS = [repr, "{:.17g}".format, "{:.16e}".format, "{:.17E}".format]


class TestReaderOracle:
    """Parsed arrays and fields are bit for bit what the former json.loads
    reader (tests/conftest.py) gave."""

    def test_acceptance_instances_and_dilations(self):
        for inst in acceptance_instances(100):
            text = emit_instance(inst).encode("utf-8")
            back, payload = parse_instance(text), load_oracle(text)
            for name, arr in (("cp_action", back.cp.action), ("tuple_action", back.tup.action)):
                assert bitwise_equal(arr, complex_tensor_oracle(payload[name], arr.shape))
            assert back.meta == payload["meta"]
            text = emit_dilation(inst, dilate(inst)).encode("utf-8")
            (data, context), payload = parse_dilation(text), load_oracle(text)
            for name in ("pi_action", "s_ops", "psi_action", "k2_embed"):
                arr = getattr(data, name)
                assert bitwise_equal(arr, complex_tensor_oracle(payload[name], arr.shape))
            for w, nested in zip(data.w_ops, payload["w_ops"], strict=True):
                assert bitwise_equal(w, complex_tensor_oracle(nested, w.shape))
            for name in ("pi_welldef", "psi_welldef"):
                assert bitwise_equal(np.float64(getattr(data, name)), np.float64(payload[name]))
            assert context == {key: payload[key] for key in context}
            assert context == serialize.instance_dims(inst)

    @settings(max_examples=300, deadline=None)
    @given(SHAPES.flatmap(lambda shape: arrays(np.float64, shape + (2,), elements=FLOATS)),
           st.sampled_from(SPELLINGS))
    def test_property_against_the_former_reader(self, pairs, fmt):
        text = '{"format":"t","version":1,"t":' + spelled(pairs, fmt) + "}"
        shape = pairs.shape[:-1]
        back = serialize._decode_complex(serialize._load(text, "t")["t"], shape, "t")
        assert bitwise_equal(back, complex_tensor_oracle(load_oracle(text)["t"], shape))


class TestGoldenFiles:
    """Version-1 files written by the former encoder: a two-block
    instance with a zero-multiplicity block and a k2_extra pad, and its
    dilation."""

    def test_emission_reproduces_the_files(self):
        inst_text = GOLDEN_INSTANCE.read_text(encoding="utf-8")
        dil_text = GOLDEN_DILATION.read_text(encoding="utf-8")
        inst = parse_instance(inst_text)
        data, _ = parse_dilation(dil_text)
        assert inst.algebra.block_dims == (2, 1) and inst.module.mults == (1, 0)
        assert inst.meta["k2_extra"] == 1
        assert emit_instance(inst) == inst_text
        assert emit_dilation(inst, data) == dil_text

    def test_generator_reproduces_the_instance_file(self):
        inst_text = GOLDEN_INSTANCE.read_text(encoding="utf-8")
        meta = dict(parse_instance(inst_text).meta)
        seed = meta.pop("seed")
        assert emit_instance(random_instance(seed, **meta)) == inst_text

    def test_parsing_round_trips_bit_exactly(self):
        inst = parse_instance(GOLDEN_INSTANCE.read_text(encoding="utf-8"))
        data, _ = parse_dilation(GOLDEN_DILATION.read_text(encoding="utf-8"))
        inst2 = parse_instance(emit_instance(inst))
        data2, _ = parse_dilation(emit_dilation(inst, data))
        assert bitwise_equal(inst2.cp.action, inst.cp.action)
        assert bitwise_equal(inst2.tup.action, inst.tup.action)
        for name in ("pi_action", "s_ops", "psi_action", "k2_embed"):
            assert bitwise_equal(getattr(data2, name), getattr(data, name))
        assert all(bitwise_equal(a, b) for a, b in zip(data2.w_ops, data.w_ops))
        assert data2.psi_welldef == data.psi_welldef

    def test_cli_verify_passes(self, capsys):
        assert cli.main(["verify", str(GOLDEN_INSTANCE), str(GOLDEN_DILATION)]) == 0
        assert "overall: PASS" in capsys.readouterr().out


# (file, field) pairs whose values must be JSON integers, and the
# rejected forms of a value v: fractional, integral float, string, bool.
DIMENSION_FIELDS = [("instance", f) for f in ("n", "h1", "h2", "block_dims", "mults")] + [
    ("dilation", f)
    for f in ("n", "h1", "h2", "block_dims", "mults", "r1", "r2", "k2i_dims")
]
REJECTED_FORMS = {
    "fraction": lambda v: v + 0.9,
    "float": float,
    "string": str,
    "bool": lambda v: True,
}


def corrupted_text(kind: str, field: str, form: str) -> str:
    """A golden file with one dimension field (or the first entry of a
    dimension list) replaced by a non-integer JSON value."""
    path = GOLDEN_INSTANCE if kind == "instance" else GOLDEN_DILATION
    payload = json.loads(path.read_text(encoding="utf-8"))
    bad = REJECTED_FORMS[form]
    if isinstance(payload[field], list):
        payload[field][0] = bad(payload[field][0])
    else:
        payload[field] = bad(payload[field])
    return json.dumps(payload)


class TestDimensionFields:
    @pytest.mark.parametrize("form", REJECTED_FORMS)
    @pytest.mark.parametrize("kind, field", DIMENSION_FIELDS)
    def test_non_integer_is_rejected(self, kind, field, form):
        parse = parse_instance if kind == "instance" else parse_dilation
        with pytest.raises(ParseError, match=f"field '{field}'"):
            parse(corrupted_text(kind, field, form))

    @pytest.mark.parametrize("golden", [GOLDEN_INSTANCE, GOLDEN_DILATION])
    def test_header_fields_are_read_in_order(self, golden):
        # both readers check n, h1, h2, block_dims, mults in this order
        parse = parse_instance if golden == GOLDEN_INSTANCE else parse_dilation
        payload = json.loads(golden.read_text(encoding="utf-8"))
        header = {field: payload.pop(field) for field in ("n", "h1", "h2", "block_dims", "mults")}
        for field, value in header.items():
            with pytest.raises(ParseError, match=f"missing field '{field}'"):
                parse(json.dumps(payload))
            payload[field] = value
        parse(json.dumps(payload))

    @pytest.mark.parametrize("field", ["block_dims", "mults", "k2i_dims"])
    def test_list_field_must_be_a_list(self, field):
        payload = json.loads(GOLDEN_DILATION.read_text(encoding="utf-8"))
        payload[field] = 2
        with pytest.raises(ParseError, match=f"field '{field}'"):
            parse_dilation(json.dumps(payload))
