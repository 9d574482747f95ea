"""Numpy kernel-hygiene rules (family N).

The vectorized engine (``core/intervals.py``, ``core/avf.py``) is pinned
bit-for-bit to the pure-Python reference — a contract that only holds
while every kernel array stays int64 (or an explicitly chosen dtype).
These rules freeze that discipline: constructors must state their dtype,
object arrays are banned outright, float32 must not leak into the
float64-only engine, and ``astype`` in kernels must state its copy
intent.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..astutil import const_value, dotted_name, keyword_arg, resolve_call
from ..findings import Finding, Module, Rule
from ..registry import register

__all__ = [
    "MissingDtype",
    "ObjectDtype",
    "Float32Leak",
    "AstypeCopyIntent",
]

#: numpy constructors whose dtype defaults are platform/value dependent
_CONSTRUCTORS = {
    "numpy.array", "numpy.asarray", "numpy.ascontiguousarray",
    "numpy.empty", "numpy.zeros", "numpy.ones", "numpy.full",
    "numpy.arange", "numpy.fromiter", "numpy.frombuffer",
}


def _calls(module: Module) -> Iterator[ast.Call]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield node


def _dtype_is(node: Optional[ast.expr], module: Module, *names: str) -> bool:
    """Whether a dtype expression resolves to one of ``names``.

    Matches both the numpy attribute form (``np.float32``) and the
    string form (``"float32"``).
    """
    if node is None:
        return False
    value = const_value(node)
    if isinstance(value, str) and value in names:
        return True
    dn = dotted_name(node)
    if dn is None:
        return False
    from ..astutil import resolve

    resolved = resolve(dn, module.aliases)
    return any(
        resolved == f"numpy.{n}" or resolved == f"numpy.{n}_"
        or resolved == n
        for n in names
    )


@register
class MissingDtype(Rule):
    code = "N201"
    slug = "missing-dtype"
    family = "numpy"
    summary = (
        "numpy array constructor without an explicit dtype inside an "
        "engine kernel module"
    )
    rationale = (
        "Kernel arrays are contracted to int64 (intervals) / float64 "
        "(series): np.array([...]) infers platform-dependent dtypes "
        "(int32 on Windows) and value-dependent ones (object for "
        "ragged input), silently breaking the bit-for-bit equivalence "
        "with core/_reference.py.  Always write dtype=."
    )
    scope = "kernel"

    def check(self, module: Module) -> Iterator[Finding]:
        for call in _calls(module):
            name = resolve_call(call, module.aliases)
            if name in _CONSTRUCTORS and keyword_arg(call, "dtype") is None:
                short = name.rpartition(".")[2]
                yield module.finding(
                    call, self.code,
                    f"np.{short}(...) without dtype= in a kernel module; "
                    "dtype inference is platform- and value-dependent",
                )


@register
class ObjectDtype(Rule):
    code = "N202"
    slug = "object-dtype"
    family = "numpy"
    summary = "object-dtype array creation (dtype=object / astype(object))"
    rationale = (
        "Object arrays are boxed-pointer arrays: every kernel falls "
        "back to Python-speed element loops, comparisons become "
        "identity-dependent, and byte-view canonical encodings (the "
        "void-row keys of the canonical lifetime ids) stop being "
        "value-deterministic."
    )
    scope = None

    def check(self, module: Module) -> Iterator[Finding]:
        for call in _calls(module):
            dtype = keyword_arg(call, "dtype")
            if _dtype_is(dtype, module, "object", "O"):
                yield module.finding(
                    call, self.code,
                    "object-dtype array: boxed pointers defeat the "
                    "vectorized kernels and value-deterministic encodings",
                )
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "astype"
                and call.args
                and _dtype_is(call.args[0], module, "object", "O")
            ):
                yield module.finding(
                    call, self.code,
                    "astype(object): boxed pointers defeat the vectorized "
                    "kernels and value-deterministic encodings",
                )


@register
class Float32Leak(Rule):
    code = "N203"
    slug = "float32-leak"
    family = "numpy"
    summary = "float32 dtype or cast inside a float64-only kernel module"
    rationale = (
        "The engine accumulates outcome cycles in float64; mixing in "
        "float32 silently promotes through ufuncs with reduced "
        "precision at the 2^24 boundary — exactly the magnitude of "
        "group-cycle sums on real traces — and diverges from the "
        "reference engine."
    )
    scope = "kernel"

    def check(self, module: Module) -> Iterator[Finding]:
        for call in _calls(module):
            name = resolve_call(call, module.aliases)
            if name == "numpy.float32":
                yield module.finding(
                    call, self.code,
                    "np.float32 cast in a float64-only kernel module",
                )
                continue
            dtype = keyword_arg(call, "dtype")
            if _dtype_is(dtype, module, "float32", "f4", "single"):
                yield module.finding(
                    call, self.code,
                    "dtype=float32 in a float64-only kernel module",
                )
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "astype"
                and call.args
                and _dtype_is(call.args[0], module, "float32", "f4", "single")
            ):
                yield module.finding(
                    call, self.code,
                    "astype(float32) in a float64-only kernel module",
                )


@register
class AstypeCopyIntent(Rule):
    code = "N204"
    slug = "astype-copy-intent"
    family = "numpy"
    summary = (
        "astype() without copy= in a kernel module (copy intent left "
        "implicit on a hot path)"
    )
    rationale = (
        "astype() copies unconditionally by default, even when the "
        "dtype already matches; on kernel hot paths that is a silent "
        "O(n) allocation per call.  Writing copy=False (view when "
        "possible) or copy=True (isolation required) makes the intent "
        "reviewable and keeps accidental copies out of the profile."
    )
    scope = "kernel"

    def check(self, module: Module) -> Iterator[Finding]:
        for call in _calls(module):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "astype"
                and keyword_arg(call, "copy") is None
            ):
                yield module.finding(
                    call, self.code,
                    "astype() without copy= on a kernel path; state the "
                    "copy intent (copy=False if a view is acceptable)",
                )
