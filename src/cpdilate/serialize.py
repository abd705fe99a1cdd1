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

Tensor text is written by one array encoder instead of ``json.dumps``
over nested lists.  It finds the distinct float magnitudes of a tensor
by bit pattern (so ``-0.0`` keeps its sign), formats each once with
``repr`` (the text ``json`` writes for a float) and makes the negative
twin by prefixing ``-``; each distinct ``[re,im]`` pair is assembled
once, each distinct row of pairs along the last axis is joined once as
``[...]`` (rows are told apart by an exact integer key over their pair
ids), the rows are scattered back by index, and the nesting is one join
of the rows with separators that close and reopen the axes that wrap.
The closed-form pi and Psi tensors ``E_pq (x) 1`` hold a handful of
distinct values and distinct rows (about 17 among the 1,024 rows of a
raw-dim-768 pi), and Hermitian Choi data repeats its magnitudes, so most
of the formatting disappears.  The output is byte for byte what
``emit_json`` writes for the nested lists;
``tests/test_serialize.py::TestEncoderEquivalence`` holds that guarantee
against the former encoder, and ``TestGoldenFiles`` against version-1
files it wrote.

Files are read by one strict RFC 8259 reader, ``orjson.loads``, over
UTF-8 bytes (``str`` input is encoded first).  What it rejects is a
ParseError: malformed or non-UTF-8 input, ``NaN``/``Infinity`` literals,
numbers beyond the double range such as ``1e400``, lone surrogate
escapes, and nesting deeper than ``MAX_DEPTH``, which is checked before
parsing because the parser recurses on the C stack.  An integer beyond
64 bits reads as a float, so a dimension field holding one is rejected
by name.  A tensor entry must be a JSON number: a string such as
``"1.5"``, ``true`` or ``null`` in a tensor, or a ragged row, is a
ParseError.  The writers stay on ``json``/``_tensor_text``: orjson 3.8.3
writes ``1e16`` for ``1e+16``, and it also switches to exponent form at
another magnitude (``0.00001`` for ``1e-05``, ``1e-7`` for ``1e-07``), so
no exponent fix-up turns it into a version-1 writer.

The readers run with CPython's cyclic garbage collector paused
(``_outside_cyclic_gc``): the parsed lists are acyclic, and collections
triggered by their allocation found nothing to free.
"""

from __future__ import annotations

import gc
import json
import math
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
_SIGN_BIT = np.uint64(1 << 63)
_NOT_STRUCTURAL = bytes(c for c in range(256) if c not in b'[]{}"')
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def emit_json(payload: dict) -> str:
    """Deterministic JSON text used by every writer."""
    return _dumps(payload) + "\n"


def _tensor_text(arr: np.ndarray) -> str:
    """``_dumps`` of the tensor as nested ``[re, im]`` lists, from each
    distinct value and each distinct row formatted once (module
    docstring)."""
    arr = np.asarray(arr, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("Out of range float values are not JSON compliant")
    shape = arr.shape
    if 0 in shape:  # nested lists down to the first zero-size axis
        shape = shape[: shape.index(0)]
        return _nest(np.full(math.prod(shape), "[]", dtype=object), shape)
    pairs, pair_ids = _pair_texts(arr)
    if arr.ndim < 2:
        return _nest(pairs[pair_ids], shape)
    rows = pair_ids.reshape(-1, shape[-1])
    count, row_ids = _factorize_rows(rows, len(pairs))
    first = np.empty(count, dtype=np.intp)
    first[row_ids] = np.arange(len(rows))  # any row of a class will do
    texts = ["[" + ",".join(row) + "]" for row in pairs[rows[first]].tolist()]
    return _nest(np.array(texts, dtype=object)[row_ids], shape[:-1])


def _pair_texts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Text ``[re,im]`` of each distinct entry, and every entry's index
    among them in row-major order; each distinct float magnitude and each
    distinct pair is formatted once."""
    bits = np.ascontiguousarray(arr).reshape(-1).view(np.uint64)  # re, im interleaved
    mags, ids = _factorize(bits & ~_SIGN_BIT)
    texts = [repr(x) for x in mags.view(np.float64).tolist()]
    texts += ["-" + t for t in texts]
    ids += (bits >> 63).astype(ids.dtype) * len(mags)
    keys, pair_ids = _factorize(ids[0::2] * len(texts) + ids[1::2])
    re_ids, im_ids = np.divmod(keys, len(texts))
    pairs = [f"[{texts[r]},{texts[i]}]" for r, i in zip(re_ids.tolist(), im_ids.tolist())]
    return np.array(pairs, dtype=object), pair_ids


def _factorize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of a non-empty 1-D array and each element's
    index among them.  A binary search over a few distinct values beats
    the argsort in ``np.unique``, which is slow on long runs of zeros."""
    s = np.sort(x)
    distinct = s[np.concatenate(([True], s[1:] != s[:-1]))]
    if len(distinct) > 8:
        return np.unique(x, return_inverse=True)
    return distinct, np.searchsorted(distinct, x)


def _factorize_rows(rows: np.ndarray, radix: int) -> tuple[int, np.ndarray]:
    """Number of distinct rows of a 2-D array of ids in ``[0, radix)`` and
    each row's index among them.  The key of a row is the row read as a
    base-``radix`` number; before a digit could overflow int64 the key is
    factorized to its distinct values, so it stays exact."""
    key, span = np.zeros(len(rows), dtype=np.int64), 1
    for column in rows.T:
        if span * radix > 2**63:
            distinct, key = _factorize(key)
            span = len(distinct)
        key = key * radix + column
        span *= radix
    distinct, row_ids = _factorize(key)
    return len(distinct), row_ids


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


def _decode_complex(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Nested ``[re, im]`` lists as a complex tensor of the declared shape.

    Each level is one pass over the lengths, then the flatten; every leaf
    must be a JSON number (``float`` or ``int``).  That suffices: a number,
    ``true`` or ``null`` at a list level has no ``len``, and a string or
    object of the declared length flattens into ``str`` nodes (no declared
    length is 0), which fail a later length or the leaf check."""
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
    if not set(map(type, nodes)) <= {float, int}:
        raise ParseError(f"{what}: tensor entries must be JSON numbers")
    # the interleaved (re, im) doubles are the complex128 memory layout,
    # so the signs of negative zeros survive for bit-exact round-trips
    pairs = np.fromiter(nodes, dtype=np.float64, count=len(nodes))
    return pairs.view(np.complex128).reshape(shape)


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


def _nesting_depth(text: bytes) -> int:
    """Deepest bracket nesting of JSON text, ignoring brackets in strings:
    escaped backslashes and quotes are dropped, then every byte but
    brackets and quotes, and the quotes' parity marks string contents."""
    if b"\\" in text:
        text = text.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = np.frombuffer(text.translate(None, _NOT_STRUCTURAL), dtype=np.uint8)
    outside = (np.cumsum(marks == ord('"'), dtype=np.intp) & 1) == 0
    return int(np.cumsum(_DEPTH_STEP[marks] * outside, dtype=np.intp).max(initial=0))


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


def _load(text: str | bytes, expected_format: str) -> dict:
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")  # orjson rejects the surrogates
    if _nesting_depth(text) > MAX_DEPTH:
        raise ParseError(f"invalid JSON: nesting deeper than {MAX_DEPTH} levels")
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
    payload = _load(text, INSTANCE_FORMAT)
    what = "instance"
    try:
        dims, algebra, module = _read_dims(payload, what)
        n, h1, h2 = dims["n"], dims["h1"], dims["h2"]
        check_dims(n, algebra.block_dims, h1, "instance has")  # before any tensor is decoded
        cp_action = _decode_complex(
            _require(payload, "cp_action", what), (n, n, algebra.dim, h1, h1), what
        )
        tuple_action = _decode_complex(
            _require(payload, "tuple_action", what), (n, module.dim, h2, h1), what
        )
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
        data = DilationData(
            r1=r1,
            r2=r2,
            pi_action=_decode_complex(
                _require(payload, "pi_action", what), (algebra.dim, r1, r1), what
            ),
            s_ops=_decode_complex(_require(payload, "s_ops", what), (n, r1, h1), what),
            psi_action=_decode_complex(
                _require(payload, "psi_action", what), (module.dim, r2, r1), what
            ),
            k2_embed=_decode_complex(_require(payload, "k2_embed", what), (h2, r2), what),
            w_ops=tuple(
                _decode_complex(w, (k, h2), what) for w, k in zip(w_raw, k2i_dims)
            ),
            k2i_dims=tuple(k2i_dims),
            pi_welldef=_real_field(payload, "pi_welldef", what),
            psi_welldef=_real_field(payload, "psi_welldef", what),
        )
        return data, dims
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"{what}: {exc}") from exc
