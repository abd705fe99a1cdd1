"""Versioned JSON formats for instances, dilations and reports.

Conventions shared by every format:

* complex scalars are ``[re, im]`` pairs of floats;
* matrices and tensors are nested lists in row-major order;
* every dimension is carried explicitly, so empty tensors round-trip;
* emission is deterministic (sorted keys, fixed separators, trailing
  newline, no timestamps), so ``parse(emit(x))`` returns ``x``
  bit-exactly and equal inputs give byte-identical files;
* dimension fields are JSON integers; anything else (``1.9``, ``"1"``,
  ``true``) is a ParseError naming the field.

Tensor text is one orjson dump of each tensor's distinct rows along
the last axis.  orjson's Ryū and ``repr`` (the text ``json`` writes for
a float) give the same shortest round-trip digits; only the layout
differs.  Writing a nonzero x as 0.d1d2... x 10^k, ``repr`` writes it
positionally iff -4 < k <= 16, orjson 3.8.3 iff -5 < k <= 16, so every
token (``0.0``, ``-0.0``, ``2.0``, ``1000000000000000.0`` included) is
already ``repr``'s but three forms, which are rewritten: orjson's
``0.0000ddd`` (k = -4) becomes ``d.dde-05``, taken only at a token start
(after ``[``, ``,`` or a ``-`` that follows one, so ``50000000000.00001``
stays); a one-digit negative exponent gets its zero (``e-7`` to
``e-07``); a positive one gets its sign (``e16`` to ``e+16``).  Rows are
keyed by a hash of their bit patterns (so ``-0.0`` keeps its sign) and
each is compared with the row its key chose; if one differs, no rows are
merged, so a collision costs time, never bytes.  The row texts are
scattered back by index, and the nesting is one join of the rows with
separators that close and reopen the axes that wrap.  The closed-form
pi and Psi tensors ``E_pq (x) 1`` hold few distinct rows (17 among the
1,024 rows of a raw-dim-768 pi), so most of the writing disappears.  The
output is byte for byte what ``emit_json`` writes for the nested lists:
``tests/test_serialize.py`` holds that against the former encoder
(``TestEncoderEquivalence``; ``TestWriterSweep`` over random bit
patterns and both sides of every layout switch) and against version-1
files it wrote (``TestGoldenFiles``), so an orjson that spells floats
otherwise fails those tests instead of writing other bytes.

Files are read by one strict RFC 8259 reader, ``orjson.loads``, over
UTF-8 bytes (``str`` input is encoded first).  What it rejects is a
ParseError: malformed or non-UTF-8 input, ``NaN``/``Infinity`` literals,
numbers beyond the double range such as ``1e400``, lone surrogate
escapes, and nesting deeper than ``MAX_DEPTH``, found before parsing (the
parser recurses on the C stack) by one structural pass that also tells
whether a ``t`` or ``f``, which no number holds, lies outside strings:
whether the file has a ``true``/``false``.  An integer beyond 64 bits
reads as a float, so a dimension field holding one is rejected by name.
A tensor entry must be a JSON number: a string such as ``"1.5"``,
``true`` or ``null`` in a tensor, or a ragged row, is a ParseError;
``array("d", ...)`` refuses every non-number but ``bool``, so only a file
with a literal pays a type pass.

The readers run with CPython's cyclic garbage collector paused
(``_outside_cyclic_gc``): the parsed lists are acyclic, and collections
triggered by their allocation found nothing to free.
"""

from __future__ import annotations

import gc
import json
import math
import re
from array import array
from contextlib import contextmanager
from functools import partial
from itertools import chain

import numpy as np
import orjson

from .algebra import AlgebraDescriptor, ModuleDescriptor
from .cpmaps import CPBlockMap, Instance, ModuleCPTuple
from .dilation import DilationData, check_dims
from .errors import DimensionTooLargeError, ParseError

__all__ = [
    "emit_instance",
    "parse_instance",
    "emit_dilation",
    "parse_dilation",
    "emit_json",
    "instance_dims",
]

INSTANCE_FORMAT = "cpdilate/instance"
DILATION_FORMAT = "cpdilate/dilation"
FORMAT_VERSION = 1
MAX_DEPTH = 512  # deepest nesting a file may have; version-1 tensors need 7


_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"), allow_nan=False)
_MIX = np.uint64(0x9E3779B97F4A7C15)
_RYU_SMALL = re.compile(rb"0\.0000(\d)(\d*)")  # Ryū's 1e-5 <= |x| < 1e-4
_UNSIGNED_EXPONENT = re.compile(rb"e(?=\d)")
_ONE_DIGIT_EXPONENT = re.compile(rb"e-(?=\d[],])")
_NOT_STRUCTURAL = bytes(c for c in range(256) if c not in b'[]{}"tf')
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def emit_json(payload: dict) -> str:
    """Deterministic JSON text used by every writer."""
    return _dumps(payload) + "\n"


def _tensor_text(arr: np.ndarray) -> str:
    """``_dumps`` of the tensor as nested ``[re, im]`` lists, from one
    orjson dump of its distinct rows respelled as ``repr`` writes
    (module docstring)."""
    arr = np.asarray(arr, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("Out of range float values are not JSON compliant")
    shape = arr.shape
    if 0 in shape:  # nested lists down to the first zero-size axis
        shape = shape[: shape.index(0)]
        return _nest(np.full(math.prod(shape), "[]", dtype=object), shape)
    if not shape:  # a scalar is the one pair of a one-entry row
        return _tensor_text(arr.reshape(1))[1:-1]
    words = np.ascontiguousarray(arr).view(np.uint64).reshape(-1, 2 * shape[-1])
    _, first, row_ids = np.unique(_row_hash(words), return_index=True, return_inverse=True)
    if not np.array_equal(words[first[row_ids]], words):  # a collision: merge no rows
        first = row_ids = np.arange(len(words))
    pairs = words[first].view(np.float64).reshape(len(first), shape[-1], 2)
    text = _repr_spelling(orjson.dumps(pairs, option=orjson.OPT_SERIALIZE_NUMPY))
    rows = ["[[" + row + "]]" for row in text.decode()[3:-3].split("]],[[")]
    return _nest(np.array(rows, dtype=object)[row_ids], shape[:-1])


def _row_hash(words: np.ndarray) -> np.ndarray:
    """A hash of each row of a 2-D ``uint64`` array: each word, salted by
    its column, is mixed, and the row is summed.  The first xor-shift
    folds the sign, exponent and leading mantissa bits into the low half
    for the multiply to spread; without it, rows of small powers of two
    (1.0 is ``0x3FF0...``) collided."""
    x = words ^ (_MIX * np.arange(words.shape[1], dtype=np.uint64))
    x ^= x >> 32
    x *= _MIX
    x ^= x >> 29
    return x.sum(axis=1)


def _repr_spelling(text: bytes) -> bytes:
    """orjson's text of a float array with each number as ``repr`` spells
    it: the three rewrites of the module docstring."""
    if b"e" in text:
        text = _ONE_DIGIT_EXPONENT.sub(b"e-0", _UNSIGNED_EXPONENT.sub(b"e+", text))
    parts, done = [], 0
    at = text.find(b"0.0000")
    while at >= 0:
        before = text[at - 1]
        if before in b"[," or (before == ord("-") and text[at - 2] in b"[,"):
            match = _RYU_SMALL.match(text, at)
            lead, rest = match.groups()
            parts += [text[done:at], lead, b"." + rest if rest else b"", b"e-05"]
            done = match.end()
        at = text.find(b"0.0000", at + 1)
    return b"".join(parts + [text[done:]])


def _nest(leaves: np.ndarray, shape: tuple[int, ...]) -> str:
    """Row-major leaves nested to ``shape`` in one join: between two
    neighbours, every axis whose index wraps is closed and reopened."""
    k = np.arange(1, len(leaves))
    depth = np.zeros(len(k), dtype=np.intp)
    for block in np.cumprod(shape[:0:-1], dtype=np.intp):
        depth += k % block == 0
    seps = np.array(["]" * c + "," + "[" * c for c in range(len(shape))], dtype=object)
    parts = np.empty(2 * len(leaves) - 1, dtype=object)
    parts[0::2] = leaves
    parts[1::2] = seps[depth]
    return "[" * len(shape) + "".join(parts.tolist()) + "]" * len(shape)


def _emit_object(fields: dict, tensor_texts: dict) -> str:
    """``emit_json(fields | tensors)`` with the tensors already encoded."""
    texts = {key: _dumps(value) for key, value in fields.items()}
    texts.update(tensor_texts)
    return "{" + ",".join(f"{_dumps(key)}:{texts[key]}" for key in sorted(texts)) + "}\n"


def _decode_complex(data, shape: tuple[int, ...], what: str, literals=True) -> np.ndarray:
    """Nested ``[re, im]`` lists as a complex tensor of the declared shape.

    Each level is one pass over the lengths, then the flatten; every leaf
    must be a JSON number (``float`` or ``int``).  That suffices: a number,
    ``true`` or ``null`` at a list level has no ``len``, and a string or
    object of the declared length flattens into ``str`` nodes (no declared
    length is 0), which fail a later length or the leaf check.  There
    ``array`` refuses all but ``bool``; a type pass runs if ``literals``."""
    if math.prod(shape) == 0:
        return np.zeros(shape, dtype=complex)
    nodes = [data]
    for length in shape + (2,):
        try:
            lengths = set(map(len, nodes))
        except TypeError:
            lengths = None
        if lengths != {length}:
            raise ParseError(f"{what}: tensor nesting does not match declared shape "
                             f"{shape + (2,)}")
        nodes = list(chain.from_iterable(nodes))
    try:
        pairs = array("d", nodes)
    except TypeError:
        pairs = None
    if pairs is None or (literals and not set(map(type, nodes)) <= {float, int}):
        raise ParseError(f"{what}: tensor entries must be JSON numbers")
    # the interleaved (re, im) doubles are the complex128 memory layout,
    # so the signs of negative zeros survive for bit-exact round-trips
    return np.frombuffer(pairs, dtype=np.complex128).reshape(shape)


def _require(payload: dict, key: str, what: str):
    if key not in payload:
        raise ParseError(f"{what}: missing field '{key}'")
    return payload[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(payload: dict, key: str, what: str) -> int:
    value = _require(payload, key, what)
    if not _is_int(value):
        raise ParseError(f"{what}: field '{key}' must be an integer, got {value!r}")
    return value


def _int_list(payload: dict, key: str, what: str) -> list[int]:
    value = _require(payload, key, what)
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        raise ParseError(f"{what}: field '{key}' must be a list of integers, got {value!r}")
    return value


def _real_field(payload: dict, key: str, what: str) -> float:
    """An optional JSON number, finite because the reader rejects the
    rest; a missing field reads as 0.0."""
    value = payload.get(key, 0.0)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what}: field '{key}' must be a number, got {value!r}")
    return float(value)


def _nesting_depth(text: bytes) -> tuple[int, bool]:
    """Deepest bracket nesting of JSON text and whether a ``t`` or ``f``
    lies outside strings: escaped backslashes and quotes are dropped, then
    every byte but brackets, quotes, ``t`` and ``f``, then each ``][`` (it
    cannot raise the maximum), and the quotes' parity marks strings."""
    if b"\\" in text:
        text = text.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = np.frombuffer(text.translate(None, _NOT_STRUCTURAL).replace(b"][", b""), np.uint8)
    outside = (np.cumsum(marks == ord('"'), dtype=np.intp) & 1) == 0
    depth = int(np.cumsum(_DEPTH_STEP[marks] * outside, dtype=np.intp).max(initial=0))
    return depth, bool((((marks == ord("t")) | (marks == ord("f"))) & outside).any())


@contextmanager
def _outside_cyclic_gc():
    """Pause CPython's cyclic garbage collector for one read.

    ``orjson.loads`` builds one list per tensor row, about 15,000 for a
    500 KB instance.  Allocating them makes the collector traverse the
    young objects again and again, and now and then the whole heap, yet
    the lists are acyclic: reference counting frees them and the
    collector never finds garbage among them.  ``gc.disable`` is
    process-global, but it holds only for the few milliseconds of one
    read, and on exit the collector is enabled again only if it was
    enabled on entry.  The readers use this as a decorator, so their
    frame, and the payload it holds, is freed inside the region; freeing
    a tracked object takes back its allocation count, so no collection is
    left pending when the collector is enabled again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _checked_text(text: str | bytes) -> tuple[bytes, bool]:
    """UTF-8 bytes for ``_load``, at most ``MAX_DEPTH`` deep, and whether they hold a literal."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")  # orjson rejects the surrogates
    depth, literals = _nesting_depth(text)
    if depth > MAX_DEPTH:
        raise ParseError(f"invalid JSON: nesting deeper than {MAX_DEPTH} levels")
    return text, literals


def _load(text: str | bytes, expected_format: str) -> dict:
    try:
        payload = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("top-level JSON value must be an object")
    fmt = _require(payload, "format", expected_format)
    if fmt != expected_format:
        raise ParseError(f"format '{fmt}', expected '{expected_format}'")
    version = _int_field(payload, "version", expected_format)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported version {version}")
    return payload


def instance_dims(inst: Instance) -> dict:
    """The dimension header both file formats share, as ``parse_dilation`` returns it."""
    return {
        "n": inst.n,
        "h1": inst.h1,
        "h2": inst.h2,
        "block_dims": list(inst.algebra.block_dims),
        "mults": list(inst.module.mults),
    }


def _read_dims(payload: dict, what: str) -> tuple[dict, AlgebraDescriptor, ModuleDescriptor]:
    """The shared header of ``instance_dims``, field by field, plus the
    algebra and module descriptors it declares."""
    dims = {key: _int_field(payload, key, what) for key in ("n", "h1", "h2")}
    dims.update({key: _int_list(payload, key, what) for key in ("block_dims", "mults")})
    algebra = AlgebraDescriptor(tuple(dims["block_dims"]))
    return dims, algebra, ModuleDescriptor(algebra, tuple(dims["mults"]))


def emit_instance(inst: Instance) -> str:
    fields = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        **instance_dims(inst),
        "meta": inst.meta,
    }
    tensors = {
        "cp_action": _tensor_text(inst.cp.action),
        "tuple_action": _tensor_text(inst.tup.action),
    }
    return _emit_object(fields, tensors)


@_outside_cyclic_gc()
def parse_instance(text: str | bytes) -> Instance:
    text, literals = _checked_text(text)
    payload = _load(text, INSTANCE_FORMAT)
    what = "instance"
    try:
        dims, algebra, module = _read_dims(payload, what)
        n, h1, h2 = dims["n"], dims["h1"], dims["h2"]
        check_dims(n, algebra.block_dims, h1, "instance has")  # before any tensor is decoded
        decode = partial(_decode_complex, what=what, literals=literals)
        cp_action = decode(_require(payload, "cp_action", what), (n, n, algebra.dim, h1, h1))
        tuple_action = decode(_require(payload, "tuple_action", what), (n, module.dim, h2, h1))
        meta = payload.get("meta") or {}
        if not isinstance(meta, dict):
            raise ParseError(f"{what}: meta must be an object")
        return Instance(
            CPBlockMap(algebra, n, h1, cp_action),
            ModuleCPTuple(module, n, h1, h2, tuple_action),
            meta,
        )
    except (ParseError, DimensionTooLargeError):
        raise
    except Exception as exc:
        raise ParseError(f"{what}: {exc}") from exc


def emit_dilation(inst: Instance, data: DilationData) -> str:
    fields = {
        "format": DILATION_FORMAT,
        "version": FORMAT_VERSION,
        **instance_dims(inst),
        "r1": data.r1,
        "r2": data.r2,
        "k2i_dims": list(data.k2i_dims),
        "pi_welldef": data.pi_welldef,
        "psi_welldef": data.psi_welldef,
    }
    tensors = {
        name: _tensor_text(getattr(data, name))
        for name in ("pi_action", "s_ops", "psi_action", "k2_embed")
    }
    tensors["w_ops"] = "[" + ",".join(_tensor_text(w) for w in data.w_ops) + "]"
    return _emit_object(fields, tensors)


@_outside_cyclic_gc()
def parse_dilation(text: str | bytes) -> tuple[DilationData, dict]:
    """Returns the data plus the dimension header recorded in the file."""
    text, literals = _checked_text(text)
    payload = _load(text, DILATION_FORMAT)
    what = "dilation"
    try:
        dims, algebra, module = _read_dims(payload, what)
        n, h1, h2 = dims["n"], dims["h1"], dims["h2"]
        r1 = _int_field(payload, "r1", what)
        r2 = _int_field(payload, "r2", what)
        k2i_dims = _int_list(payload, "k2i_dims", what)
        if len(k2i_dims) != n:
            raise ParseError(f"{what}: expected {n} coisometries")
        w_raw = _require(payload, "w_ops", what)
        if not isinstance(w_raw, list) or len(w_raw) != n:
            raise ParseError(f"{what}: expected {n} coisometries")
        decode = partial(_decode_complex, what=what, literals=literals)
        data = DilationData(
            r1=r1,
            r2=r2,
            pi_action=decode(_require(payload, "pi_action", what), (algebra.dim, r1, r1)),
            s_ops=decode(_require(payload, "s_ops", what), (n, r1, h1)),
            psi_action=decode(_require(payload, "psi_action", what), (module.dim, r2, r1)),
            k2_embed=decode(_require(payload, "k2_embed", what), (h2, r2)),
            w_ops=tuple(decode(w, (k, h2)) for w, k in zip(w_raw, k2i_dims)),
            k2i_dims=tuple(k2i_dims),
            pi_welldef=_real_field(payload, "pi_welldef", what),
            psi_welldef=_real_field(payload, "psi_welldef", what),
        )
        return data, dims
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"{what}: {exc}") from exc
