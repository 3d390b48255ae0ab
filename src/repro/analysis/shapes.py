"""Symbolic shape and dtype inference over :mod:`repro.nn` modules.

Every layer implements the *shape-spec protocol*
(:meth:`repro.nn.Module.shape_spec`): given symbolic input descriptions it
returns symbolic output descriptions, raising :class:`ShapeError` — with
the offending layer and the mismatched axes spelled out — instead of
letting numpy broadcast its way into a wrong-but-running model.  The
symbols (``B``, ``L``, ``m`` …) are carried through unification in a
:class:`ShapeEnv`, so a whole forward dataflow is validated without
executing a single numpy op.

:func:`check_shapes` applies the protocol to the full RRRE model (or an
:class:`repro.core.RRREConfig`), mirroring ``RRRE.forward`` symbolically:
encoder → fraud-attention pooling → reliability head → FM rating head.
Any config — including ones arriving from the CLI — can therefore be
validated before training starts (:func:`repro.analysis.preflight` and
``python -m repro analyze --shapes``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Dim",
    "ShapeSpec",
    "ShapeEnv",
    "ShapeError",
    "ShapeCheckReport",
    "scoped_env",
    "infer_shapes",
    "check_shapes",
    "unify",
    "expect_ndim",
    "expect_axis",
    "expect_dtype",
    "concat_spec",
    "elementwise_spec",
]

DimLike = Union["Dim", int, str]


class ShapeError(ValueError):
    """A symbolic shape/dtype contract violation.

    Attributes
    ----------
    layer:
        Dotted path + class of the offending layer (filled in by
        :func:`apply_spec` as the model walk descends).
    """

    def __init__(self, message: str, layer: str = "") -> None:
        self.layer = layer
        super().__init__(f"{layer}: {message}" if layer else message)

    def with_layer(self, layer: str) -> "ShapeError":
        """Return a copy with ``layer`` prefixed (outermost path wins)."""
        message = self.args[0]
        if self.layer and message.startswith(f"{self.layer}: "):
            message = message[len(self.layer) + 2 :]
            layer = f"{layer} → {self.layer}"
        return ShapeError(message, layer=layer)


class Dim:
    """A symbolic dimension: an optional symbol plus an integer offset.

    ``Dim("B")`` is the symbolic batch axis, ``Dim.of(64)`` a concrete
    width, and ``Dim("L") - 2`` the derived length a kernel-3 valid
    convolution produces.  Two dims unify when their resolved forms agree
    (see :meth:`ShapeEnv.unify`).
    """

    __slots__ = ("sym", "offset")

    def __init__(self, sym: Optional[str] = None, offset: int = 0) -> None:
        self.sym = sym
        self.offset = int(offset)

    @classmethod
    def of(cls, value: DimLike) -> "Dim":
        """Coerce an int (concrete), str (symbol), or Dim to a Dim."""
        if isinstance(value, Dim):
            return value
        if isinstance(value, str):
            return cls(value)
        return cls(None, int(value))

    @property
    def is_concrete(self) -> bool:
        return self.sym is None

    def __add__(self, k: int) -> "Dim":
        return Dim(self.sym, self.offset + int(k))

    def __sub__(self, k: int) -> "Dim":
        return Dim(self.sym, self.offset - int(k))

    def __eq__(self, other) -> bool:
        other = Dim.of(other)
        return self.sym == other.sym and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.sym, self.offset))

    def __repr__(self) -> str:
        if self.sym is None:
            return str(self.offset)
        if self.offset == 0:
            return self.sym
        return f"{self.sym}{self.offset:+d}"


class ShapeSpec:
    """A symbolic tensor description: dims, dtype kind, and a label."""

    __slots__ = ("dims", "dtype", "name")

    def __init__(
        self,
        dims: Sequence[DimLike],
        dtype: str = "float64",
        name: str = "",
    ) -> None:
        self.dims: Tuple[Dim, ...] = tuple(Dim.of(d) for d in dims)
        self.dtype = dtype
        self.name = name

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def with_dims(self, dims: Sequence[DimLike], name: str = "") -> "ShapeSpec":
        """A copy with new dims (dtype preserved)."""
        return ShapeSpec(dims, dtype=self.dtype, name=name or self.name)

    def __repr__(self) -> str:
        inner = ", ".join(repr(d) for d in self.dims)
        tag = f" {self.name!r}" if self.name else ""
        return f"({inner}) {self.dtype}{tag}"


class ShapeEnv:
    """Symbol bindings accumulated while unifying dims across layers."""

    def __init__(self) -> None:
        self.bindings: Dict[str, Dim] = {}

    def resolve(self, dim: DimLike) -> Dim:
        """Follow symbol bindings, accumulating offsets."""
        dim = Dim.of(dim)
        seen = set()
        while dim.sym is not None and dim.sym in self.bindings:
            if dim.sym in seen:  # defensive: cyclic binding
                break
            seen.add(dim.sym)
            target = self.bindings[dim.sym]
            dim = Dim(target.sym, target.offset + dim.offset)
        return dim

    def unify(self, a: DimLike, b: DimLike, *, what: str = "dim", layer: str = "") -> Dim:
        """Unify two dims, binding symbols as needed; raises :class:`ShapeError`."""
        ra, rb = self.resolve(a), self.resolve(b)
        if ra.is_concrete and rb.is_concrete:
            if ra.offset != rb.offset:
                raise ShapeError(f"{what}: {ra!r} != {rb!r}", layer=layer)
            return ra
        if ra.is_concrete:
            ra, rb = rb, ra
        # ra symbolic; rb concrete or symbolic.
        if rb.sym == ra.sym:
            if rb.offset != ra.offset:
                raise ShapeError(f"{what}: {ra!r} != {rb!r}", layer=layer)
            return ra
        resolved = Dim(rb.sym, rb.offset - ra.offset)
        if resolved.is_concrete and resolved.offset < 0:
            raise ShapeError(
                f"{what}: {Dim(ra.sym)!r} would need negative size "
                f"({Dim(ra.sym)!r} = {resolved!r}) to satisfy {ra!r} = {rb!r}",
                layer=layer,
            )
        self.bindings[ra.sym] = resolved
        return self.resolve(ra)


# ---------------------------------------------------------------------------
# Ambient environment — keeps the layer-side protocol signatures small.
# ---------------------------------------------------------------------------

_ENV_STACK: List[ShapeEnv] = []


@contextmanager
def scoped_env(env: Optional[ShapeEnv] = None):
    """Install ``env`` (or a fresh one) as the ambient unification scope."""
    env = env or ShapeEnv()
    _ENV_STACK.append(env)
    try:
        yield env
    finally:
        _ENV_STACK.pop()


def _env() -> ShapeEnv:
    if not _ENV_STACK:
        # Layer checked in isolation: a throwaway env still catches
        # within-call inconsistencies.
        return ShapeEnv()
    return _ENV_STACK[-1]


def unify(a: DimLike, b: DimLike, *, what: str = "dim", layer: str = "") -> Dim:
    """Unify two dims in the ambient environment."""
    return _env().unify(a, b, what=what, layer=layer)


def expect_ndim(spec: ShapeSpec, ndim: int, *, layer: str, what: str = "input") -> None:
    """Require an exact rank."""
    if spec.ndim != ndim:
        raise ShapeError(
            f"{what} must be {ndim}-d, got {spec.ndim}-d {spec!r}", layer=layer
        )


def expect_axis(
    spec: ShapeSpec, axis: int, expected: DimLike, *, layer: str, what: str = "axis"
) -> Dim:
    """Unify one axis of ``spec`` against an expected dim."""
    if spec.ndim == 0 or axis >= spec.ndim or axis < -spec.ndim:
        raise ShapeError(
            f"{what}: {spec!r} has no axis {axis}", layer=layer
        )
    try:
        return unify(spec.dims[axis], expected, what=what, layer=layer)
    except ShapeError:
        raise ShapeError(
            f"{what}: input axis {axis} of {spec!r} is "
            f"{_env().resolve(spec.dims[axis])!r}, expected {Dim.of(expected)!r}",
            layer=layer,
        ) from None


def expect_dtype(
    spec: ShapeSpec, kinds: Union[str, Tuple[str, ...]], *, layer: str, what: str = "input"
) -> None:
    """Require the spec's dtype kind to be one of ``kinds``."""
    if isinstance(kinds, str):
        kinds = (kinds,)
    if spec.dtype not in kinds:
        raise ShapeError(
            f"{what} dtype must be {' or '.join(kinds)}, got {spec.dtype} ({spec!r})",
            layer=layer,
        )


def concat_spec(specs: Sequence[ShapeSpec], axis: int = -1, *, layer: str = "concat") -> ShapeSpec:
    """Symbolic concatenation: non-concat axes unify, concat axis sums."""
    if not specs:
        raise ShapeError("concat of zero tensors", layer=layer)
    first = specs[0]
    norm_axis = axis if axis >= 0 else first.ndim + axis
    total = _env().resolve(first.dims[norm_axis])
    for spec in specs[1:]:
        expect_ndim(spec, first.ndim, layer=layer, what="concat operand")
        for i in range(first.ndim):
            if i == norm_axis:
                continue
            unify(first.dims[i], spec.dims[i], what=f"concat axis {i}", layer=layer)
        other = _env().resolve(spec.dims[norm_axis])
        if total.is_concrete and other.is_concrete:
            total = Dim(None, total.offset + other.offset)
        elif other.is_concrete or total.is_concrete:
            sym = total if not total.is_concrete else other
            con = other if not total.is_concrete else total
            total = Dim(sym.sym, sym.offset + con.offset)
        else:
            raise ShapeError(
                f"cannot add two symbolic dims on concat axis: {total!r} + {other!r}",
                layer=layer,
            )
    dims = list(first.dims)
    dims[norm_axis] = total
    return first.with_dims(dims)


def elementwise_spec(a: ShapeSpec, b: ShapeSpec, *, layer: str = "elementwise") -> ShapeSpec:
    """Symbolic broadcasting for elementwise ops (numpy rules)."""
    ndim = max(a.ndim, b.ndim)
    dims_a = (Dim(None, 1),) * (ndim - a.ndim) + a.dims
    dims_b = (Dim(None, 1),) * (ndim - b.ndim) + b.dims
    out: List[Dim] = []
    env = _env()
    for i, (da, db) in enumerate(zip(dims_a, dims_b)):
        ra, rb = env.resolve(da), env.resolve(db)
        if ra == Dim(None, 1):
            out.append(rb)
        elif rb == Dim(None, 1):
            out.append(ra)
        else:
            out.append(unify(ra, rb, what=f"broadcast axis {i - ndim}", layer=layer))
    return ShapeSpec(out, dtype=a.dtype, name=a.name or b.name)


def apply_spec(module, name: str, *inputs, **kwargs):
    """Run a module's ``shape_spec`` and attach its dotted path to errors."""
    try:
        return module.shape_spec(*inputs, **kwargs)
    except ShapeError as err:
        raise err.with_layer(f"{name} ({type(module).__name__})") from None


def infer_shapes(module, *inputs, env: Optional[ShapeEnv] = None, **kwargs):
    """Infer a single module's output spec(s) in a fresh (or given) env."""
    with scoped_env(env):
        return module.shape_spec(*inputs, **kwargs)


# ---------------------------------------------------------------------------
# Whole-model validation
# ---------------------------------------------------------------------------


@dataclass
class ShapeCheckReport:
    """Result of a whole-model symbolic shape check."""

    ok: bool = True
    shapes: Dict[str, str] = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {"ok": self.ok, "shapes": dict(self.shapes), "error": self.error}


def check_shapes(target, batch: str = "B", strict: bool = True) -> ShapeCheckReport:
    """Symbolically validate the full RRRE dataflow of ``target``.

    ``target`` is either an :class:`repro.core.RRREConfig` (a throwaway
    model is constructed with tiny entity counts — widths, not table
    sizes, determine shapes) or a constructed :class:`repro.core.RRRE`.
    No forward pass is executed; the check is pure dim unification.

    With ``strict=True`` (default) a :class:`ShapeError` is raised on the
    first violation; otherwise it is captured in the returned report.
    """
    from repro.core.config import RRREConfig
    from repro.core.model import RRRE

    if isinstance(target, RRREConfig):
        model = RRRE(target, num_users=7, num_items=7, vocab_size=23)
    elif isinstance(target, RRRE):
        model = target
    else:
        raise TypeError(
            f"check_shapes expects RRREConfig or RRRE, got {type(target).__name__}"
        )

    report = ShapeCheckReport()
    try:
        with scoped_env() as env:
            report.shapes = _trace_rrre(model, batch=batch, env=env)
    except ShapeError as err:
        report.ok = False
        report.error = str(err)
        if strict:
            raise
    return report


def _trace_rrre(model, batch: str, env: ShapeEnv) -> Dict[str, str]:
    """Mirror ``RRRE.forward`` with symbolic tensors; returns named shapes."""
    cfg = model.config
    B = Dim(batch)
    L = Dim.of(cfg.max_len)
    observed: Dict[str, str] = {}

    def note(name: str, spec) -> ShapeSpec:
        observed[name] = repr(spec)
        return spec

    # Review encoders: (N, L) token ids -> (N, review_dim) encodings.
    tokens_u = ShapeSpec((Dim("Nu"), L), "int64", "token_ids")
    mask_u = ShapeSpec((Dim("Nu"), L), "bool", "token_mask")
    enc_u = note("user_encoder", apply_spec(model.user_encoder, "user_encoder", tokens_u, mask_u))
    unify(enc_u.dims[-1], cfg.review_dim, what="user encoder output width", layer="user_encoder")

    tokens_i = ShapeSpec((Dim("Ni"), L), "int64", "token_ids")
    mask_i = ShapeSpec((Dim("Ni"), L), "bool", "token_mask")
    enc_i = note("item_encoder", apply_spec(model.item_encoder, "item_encoder", tokens_i, mask_i))
    unify(enc_i.dims[-1], cfg.review_dim, what="item encoder output width", layer="item_encoder")

    # UserNet: gather encodings into (B, s_u, k) and pool.
    u_reviews = ShapeSpec((B, cfg.s_u, enc_u.dims[-1]), "float64", "u_reviews")
    e_u = note(
        "user_id_embedding",
        apply_spec(model.user_id_embedding, "user_id_embedding", ShapeSpec((B,), "int64", "user_ids")),
    )
    u_others = apply_spec(
        model.item_id_embedding,
        "item_id_embedding",
        ShapeSpec((B, cfg.s_u), "int64", "user_slot_items"),
    )
    u_mask = ShapeSpec((B, cfg.s_u), "bool", "user_slot_mask")
    x_u, attn_u = apply_spec(model.user_net, "user_net", u_reviews, e_u, u_others, u_mask)
    note("x_u", x_u)
    note("user_attention", attn_u)

    # ItemNet.
    i_reviews = ShapeSpec((B, cfg.s_i, enc_i.dims[-1]), "float64", "i_reviews")
    e_i = note(
        "item_id_embedding/items",
        apply_spec(model.item_id_embedding, "item_id_embedding", ShapeSpec((B,), "int64", "item_ids")),
    )
    i_others = apply_spec(
        model.user_id_embedding,
        "user_id_embedding",
        ShapeSpec((B, cfg.s_i), "int64", "item_slot_users"),
    )
    i_mask = ShapeSpec((B, cfg.s_i), "bool", "item_slot_mask")
    y_i, attn_i = apply_spec(model.item_net, "item_net", i_reviews, e_i, i_others, i_mask)
    note("y_i", y_i)
    note("item_attention", attn_i)

    # Reliability head (Eq. 9): softmax over W[x_u, y_i] + b.
    joint = concat_spec([x_u, y_i], axis=-1, layer="reliability_head input")
    joint = apply_spec(model.dropout, "dropout", joint)
    logits = note(
        "reliability_logits",
        apply_spec(model.reliability_head, "reliability_head", joint),
    )
    expect_axis(logits, -1, 2, layer="reliability_head", what="reliability classes")

    # Rating head (Eq. 12): FM([(e_u + W_h x_u), (e_i + W_e y_i)]).
    proj_u = apply_spec(model.w_h, "w_h", x_u)
    proj_i = apply_spec(model.w_e, "w_e", y_i)
    side_u = elementwise_spec(e_u, proj_u, layer="rating head (e_u + W_h x_u)")
    side_i = elementwise_spec(e_i, proj_i, layer="rating head (e_i + W_e y_i)")
    z = concat_spec([side_u, side_i], axis=-1, layer="fm input")
    rating = note("rating", apply_spec(model.fm, "fm", apply_spec(model.dropout, "dropout", z)))
    expect_ndim(rating, 1, layer="fm", what="rating output")
    unify(rating.dims[0], B, what="rating batch axis", layer="fm")
    return observed
