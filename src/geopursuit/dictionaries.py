"""Parametric dictionary interface: atom synthesis and parameter derivatives.

A dictionary maps a P-dimensional parameter point to a unit-norm atom on
its own sample grid, `Dictionary.shape`, and refuses signals of any other
shape. Atoms are renormalized on the grid (boundary
renormalization), so truncated atoms are still valid unit-norm atoms and
the identities <d_i g, g> = 0 and <d_ij g, g> = -G_ij hold exactly in the
discrete inner product. Derivatives are therefore derivatives of the
*renormalized* synthesis map. Each dictionary family evaluates its raw atom
and its first and second partials in closed form in one function, its
`_jet`, which builds the sample frame once, stacks the partials along
leading axes and returns the frame with them. `Dictionary.jet`, of which
`synthesize`, `partials` and `second_partials` are views, is the one place
that checks a point against the domain (its length and its scales) and
renormalizes: one quotient rule gives the first partials, (P, *shape), and
the second, (P, P, *shape), from them; the geometry contracts the stacks.
It keeps the last jet it evaluated, with its frame and its norm: asking
again at the same point costs nothing, and asking for a higher order there
continues that jet instead of starting over, so each point's frame and
atom are built once.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SignalBuffer

TRANSLATION = "translation"
SCALE = "scale"
ANGLE = "angle"

# Scales this close (relatively) to the domain boundary count as
# non-interior, so derivatives are taken only where a small step in any
# direction stays in the domain; clamping pulls slightly further in so that
# a clamped point is always interior.
INTERIOR_MARGIN = 2e-3
CLAMP_MARGIN = 4e-3

_MIN_ATOM_NORM = 1e-9

# Scales produced as a0 * tau**j carry float fuzz; the domain check allows it.
_DOMAIN_TOL = 1e-9


class DomainError(ValueError):
    """Parameter outside the dictionary's domain (or atom without support)."""


class ParamPoint:
    """A point in the continuous parameter space of a dictionary: its
    coordinates, a flat, finite, read-only vector. What each coordinate
    means, and where the domain ends, is for the dictionary to say."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("coords must be a flat vector")
        if not np.isfinite(arr).all():
            raise DomainError("non-finite parameter coordinates")
        arr.setflags(write=False)
        self.coords = arr

    def __len__(self):
        return self.coords.size

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        vals = ", ".join(format(v, ".6g") for v in self.coords)
        return f"ParamPoint({vals})"


def spec_number(spec, key, integral: bool = False, finite: bool = False):
    """`spec[key]` of parsed JSON (an object or an array) if it is a JSON
    number: an integral one, returned as an int, if `integral`, and a finite
    one if `finite`; else ValueError naming the key. Callers check range."""
    x = spec[key]
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or integral and isinstance(x, float) and not x.is_integer()
            or finite and isinstance(x, float) and not math.isfinite(x)):
        kind = "an integer" if integral else "a finite number" if finite else "a number"
        raise ValueError(f"{key!r} must be {kind}, got {x!r}")
    return int(x) if integral else x


def check_spec_keys(spec: dict, keys) -> None:
    """Refuse a key of a parsed spec object that is not one of `keys`, the
    keys its reader reads, naming it: a misspelt key is not a default."""
    unread = [key for key in spec if key not in keys]
    if unread:
        raise ValueError(f"unknown key {unread[0]!r} (a spec takes only {', '.join(keys)})")


class Dictionary:
    """Base class for parametric dictionaries.

    Concrete dictionaries provide `_jet`: the continuum-normalized samples
    of the atom with, up to a requested order, its partials in closed form.
    The renormalized atom and its partials, `jet`, follow from it.
    """

    kinds: tuple[str, ...]
    shape: tuple[int, ...]
    scale_range: tuple[float, float]

    @property
    def P(self) -> int:
        return len(self.kinds)

    # -- to be overridden ------------------------------------------------
    def point(self, *coords) -> ParamPoint:
        return ParamPoint(coords)

    def _jet(self, coords: np.ndarray, shape, order: int, start: int, frame) -> tuple:
        """(parts, frame): the parts of orders start..order, at most 2, of
        the raw atom sampled on `shape` (the atom itself, its first partials
        stacked as (P, *shape) and its second partials as a symmetric
        (P, P, *shape) stack), and the frame a later call continues from.
        `start` is 0 and `frame` None for a fresh evaluation; else `frame`
        is what the call at the same coordinates and shape up to order
        start - 1 returned, and the call computes only what that one did
        not, the same floats a fresh call computes. The frame is the
        family's own (its sample coordinates and the values they share);
        the parts are fresh arrays, never scratch the dictionary or the
        frame reuses: the renormalization overwrites the stacks, and the
        memo keeps them. Atoms use `self.shape`; the search's templates use
        their own canvas."""
        raise NotImplementedError

    def check_shape(self, shape) -> None:
        """Reject a sample shape other than the dictionary's own."""
        if tuple(shape) != self.shape:
            raise ValueError(f"shape {tuple(shape)} does not match the dictionary's "
                             f"sample grid {self.shape}")

    # -- domain handling --------------------------------------------------
    def check_scales(self, scales, margin: float = 0.0, problem: str = "outside") -> None:
        """Reject scales outside the scale range shrunk by `margin`
        (relative) at each end, allowing _DOMAIN_TOL relative fuzz: the one
        rule for the scales of points and of grids."""
        lo, hi = self.scale_range
        lo_in, hi_in = lo * (1 + margin - _DOMAIN_TOL), hi * (1 - margin + _DOMAIN_TOL)
        for x in scales:
            if not (lo_in <= x <= hi_in):
                raise DomainError(f"scale {x} {problem} [{lo}, {hi}]")

    def _scales(self, lam: ParamPoint) -> list:
        return [x for x, k in zip(lam.coords, self.kinds) if k == SCALE]

    def _check_domain(self, lam: ParamPoint) -> None:
        """Reject a point of another length than P (ValueError) or with a
        scale outside the scale range (DomainError)."""
        if len(lam) != self.P:
            raise ValueError(f"a point of {len(lam)} coordinates given to a dictionary "
                             f"of {self.P} parameters")
        self.check_scales(self._scales(lam))

    def require_interior(self, lam: ParamPoint) -> None:
        """Reject points too close to the scale bounds for derivatives."""
        self.check_scales(self._scales(lam), INTERIOR_MARGIN,
                          f"for derivatives is not {INTERIOR_MARGIN:g} (relative) inside")

    def clamp_scale(self, a: float) -> float:
        """`a` pulled to CLAMP_MARGIN (relative) inside the scale range."""
        lo, hi = self.scale_range
        return min(max(a, lo * (1 + CLAMP_MARGIN)), hi * (1 - CLAMP_MARGIN))

    def clamp_coords(self, coords) -> ParamPoint:
        """Pull raw coordinates into the interior of the domain.

        Translations clamp to the buffer extent (translations lead the
        coordinates, so translation i moves along sample axis i), scales to
        a margin inside the scale range, angles wrap modulo pi. Accepts
        coordinates outside the valid region (e.g. negative scales from an
        overshot step).
        """
        coords = np.array(coords, dtype=np.float64, copy=True)
        for i, k in enumerate(self.kinds):
            if k == SCALE:
                coords[i] = self.clamp_scale(coords[i])
            elif k == ANGLE:
                coords[i] = coords[i] % np.pi
            else:
                coords[i] = min(max(coords[i], 0.0), float(self.shape[i] - 1))
        return ParamPoint(coords)

    # -- synthesis & derivatives -------------------------------------------
    # (coordinate bytes, parts, frame, norm) of the last jet evaluated; see `jet`.
    _last_jet: tuple = (None, (), None, ())

    def jet(self, lam: ParamPoint, order: int = 0) -> tuple:
        """The renormalized atom at `lam` and, up to `order`, its partials:
        (atom,), (atom, d1) or (atom, d1, d2), with d1 a (P, *shape) stack
        and d2 an exactly symmetric (P, P, *shape) stack, all read-only.
        Derivatives need `lam` interior to the domain.

        The dictionary keeps a one-entry memo of the last jet it evaluated,
        keyed on the exact coordinates: its parts, the `_jet` frame they
        came from and the norm that renormalized them. A request at the
        same coordinates and of an order no higher than the entry's is
        served from it, as the prefix of its parts; one of a higher order
        extends it: `_jet` continues from the frame, and only the new
        partials are renormalized, by the entry's atom and norm. Each
        order's parts are the same floats whatever order computed them and
        whether or not they extend an entry, so a served or extended jet
        equals a fresh one bit for bit. An extension runs the checks of its
        order, and a point or an order that failed a check is never stored.
        The memo, like the search plans cached per dictionary, relies on a
        dictionary being immutable once built."""
        key = lam.coords.tobytes()
        last_key, parts, frame, norm = self._last_jet
        if key != last_key:
            self._check_domain(lam)
            # drop the old entry first, so that its arrays are freed before
            # the new ones are allocated
            self._last_jet = Dictionary._last_jet
            parts, frame, norm = (), None, ()
        elif len(parts) > order:
            return parts[:order + 1]
        if order:
            self.require_interior(lam)
        new, frame = self._jet(lam.coords, self.shape, order, len(parts), frame)
        parts, norm = _renormalized(parts, norm, new)
        self._last_jet = (key, parts, frame, norm)
        return parts

    def synthesize(self, lam: ParamPoint, shape=None) -> SignalBuffer:
        """Unit-norm atom at `lam`, renormalized on the sample grid. A
        `shape` other than the dictionary's raises ValueError."""
        if shape is not None:
            self.check_shape(shape)
        return SignalBuffer(self.jet(lam)[0])

    def partials(self, lam: ParamPoint) -> np.ndarray:
        """First partials of the renormalized atom: `jet` of order 1."""
        return self.jet(lam, 1)[1]

    def second_partials(self, lam: ParamPoint) -> np.ndarray:
        """Second partials of the renormalized atom: `jet` of order 2."""
        return self.jet(lam, 2)[2]


def _renormalized(parts: tuple, norm: tuple, new) -> tuple:
    """The renormalized jet `parts` continued by `new`, the raw parts of the
    orders after its own: (parts, norm), where `norm` holds n = ||raw|| and,
    from order 1, its partials d_i n, which the next order reads.

    The atom is raw/n. The first partials p_i = (d_i raw - atom d_i n)/n
    overwrite d1, then the second partials
    (d_ij raw - p_i d_j n - p_j d_i n - atom d_ij n)/n overwrite d2 (a fresh
    (P, P, *shape) array costs page faults on every call). Held parts are
    read, never written. Every new part is returned finite (else
    DomainError) and read-only."""
    out = list(parts)
    for k, part in enumerate(new, len(parts)):
        if k == 0:
            nrm = np.linalg.norm(part)
            if not _MIN_ATOM_NORM < nrm < np.inf:  # a finite norm means a finite atom
                raise DomainError("atom has no effective support in the buffer, "
                                  "or is not finite")
            out.append(part / nrm)
            norm = (nrm,)
            continue
        atom, nrm = out[0], norm[0]
        P = len(part)
        if k == 1:
            dn = part.reshape(P, -1) @ atom.ravel()  # d_i n = <d_i raw, atom>
            for i in range(P):
                part[i] -= dn[i] * atom
            part /= nrm
            norm = (nrm, dn)
        else:
            d1, dn = out[1], norm[1]
            flat = d1.reshape(P, -1)
            # d_ij n = <d_ij raw, atom> + <d_i raw, p_j>, where d_i raw = n p_i + atom d_i n
            # and <atom, p_j> = 0 leave <d_i raw, p_j> = n <p_i, p_j>
            ddn = (part.reshape(P * P, -1) @ atom.ravel()).reshape(P, P) + nrm * (flat @ flat.T)
            for i in range(P):
                for j in range(i, P):
                    part[i, j] -= d1[i] * dn[j] + d1[j] * dn[i] + atom * ddn[i, j]
                    part[i, j] /= nrm
                    part[j, i] = part[i, j]
        if not np.isfinite(part).all():
            raise DomainError("atom derivatives are not finite")
        out.append(part)
    for part in out[len(parts):]:
        part.setflags(write=False)
    return tuple(out), norm
