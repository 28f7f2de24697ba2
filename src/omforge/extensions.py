"""Single-element extensions and their interaction with mutations.

Lexicographic extensions come in two routes that must agree.  The
chirotope route, which `lex_extend` takes, writes the extension's signs
directly; it is trusted without a Grassmann-Pluecker check, since a
lexicographic extension of a valid chirotope is valid.  The
localization route (old cocircuits pick up the localization sign, new
cocircuits appear on every line where the localization changes sign
between neighbours) is its test oracle, and the route of perturbations;
its cocircuit set enters through `om_from_cocircuits`, which recovers
its chirotope.  On top sit the mutation creation/destruction checks,
the head-swap isomorphism, perturbation of an extension off a vertex,
and the flip/extension exchange pipeline that manufactures Mandel
witnesses from Euclidean mutants; the pipeline tests and flips the
shifted basis by the chirotope sign test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .core import Chirotope, InvalidCocircuits, OrientedMatroid, om_from_cocircuits, pair_kind
from .faces import (
    MutationCertificate,
    adjacent_cocircuits,
    flip_basis,
    mutation_from_basis,
    topes,
)
from .programs import _neighbour_pairs, _verdicts, all_programs_euclidean
from .signs import MINUS, PLUS, SignVector, bits, char_sign, mask_of, sign_char


class ExtensionError(ValueError):
    pass


class PerturbationError(ValueError):
    pass


@dataclass(frozen=True)
class LexExtensionSpec:
    """Signed priority list [(e_1, a_1), ..., (e_k, a_k)], a_i in {+,-}."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for e, a in self.terms:
            if a not in (PLUS, MINUS):
                raise ValueError("alphas must be nonzero signs")
            if e in seen:
                raise ValueError(f"repeated element {e} in extension spec")
            seen.add(e)
        if not self.terms:
            raise ValueError("empty extension spec")

    @classmethod
    def parse(cls, text: str) -> "LexExtensionSpec":
        """Parse 'e:+,e:-,...' notation."""
        terms = []
        for part in text.split(","):
            e, _, a = part.strip().partition(":")
            terms.append((int(e), char_sign(a)))
        return cls(tuple(terms))

    def elements(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms)

    def to_string(self) -> str:
        return ",".join(f"{e}:{sign_char(a)}" for e, a in self.terms)


def extend_by_localization(
    om: OrientedMatroid, sigma: Mapping[SignVector, int], pos: Optional[int] = None
) -> OrientedMatroid:
    """Single-element extension from a localization map.

    Old cocircuits gain the sigma value at the new coordinate; each
    neighbour pair (conformal, comodular) whose sigma values are
    opposite and nonzero contributes the new cocircuit (X o Y, 0).  The
    set is checked by `om_from_cocircuits`: a sigma that is no
    localization raises `InvalidCocircuits`.
    """
    if pos is None:
        pos = om.n
    out = set()
    for x in om.cocircuits:
        out.add(x.insert(pos, sigma[x]))
    verts = [x for x in om.sorted_cocircuits() if sigma[x]]
    for i, j in _neighbour_pairs(om, verts):
        x, y = verts[i], verts[j]
        if sigma[y] == -sigma[x]:
            out.add(x.compose(y).insert(pos, 0))
    labels = None
    if om.labels is not None:
        labels = list(om.labels)
        labels.insert(pos, f"x{om.n}")
    return om_from_cocircuits(om.n + 1, om.rank, out, labels=labels)


def lex_extension_chirotope(om: OrientedMatroid, spec: LexExtensionSpec) -> Chirotope:
    """Chirotope of om[spec]: on tuples through the new element p, the
    first nonzero of a_i * chi(e_i, lambda) decides the sign, and the
    sign is 0 when there is none (a spec shorter than the rank).

    p is the top bit, so every old sign keeps its mask and the new signs
    sit at the masks of lambda + {p}."""
    chi = om.chirotope
    r, n = chi.rank, chi.n
    top = 1 << n
    signs = chi.signs + [0] * top
    for lam in itertools.combinations(range(n), r - 1):
        am = mask_of(lam)
        for e, a in spec.terms:
            s = signs[am | 1 << e]  # 0 when e is in lambda
            if s:
                # chi(p, lambda) = a * chi(e, lambda); sorting (e, lambda)
                # passes e over the elements of lambda below it, and
                # sorting (p, lambda) passes p over all r - 1 of them
                if ((am & ((1 << e) - 1)).bit_count() + r - 1) & 1:
                    s = -s
                signs[am | top] = a * s
                break
    return Chirotope._dense(r, n + 1, signs)


def lex_extend(om: OrientedMatroid, spec: LexExtensionSpec) -> OrientedMatroid:
    """Lexicographic extension; the new element is appended as index n.

    Its chirotope (`lex_extension_chirotope`) is trusted without a
    check: a lexicographic extension of a valid chirotope by independent
    elements is valid, and any k <= r distinct elements of a uniform
    oriented matroid are independent.  The localization route
    (`extend_by_localization`) is its test oracle.
    """
    elems = spec.elements()
    if any(not 0 <= e < om.n for e in elems):
        raise ExtensionError("spec element out of range")
    k = len(elems)
    if k > om.rank:
        raise ExtensionError("spec longer than rank")
    if not om.is_uniform() and om.subset_rank(elems) != k:
        raise ExtensionError("spec elements are dependent")
    return OrientedMatroid(lex_extension_chirotope(om, spec))


# ---------------------------------------------------------------------------
# inseparable pairs and corresponding cocircuits
# ---------------------------------------------------------------------------

def corresponding_cocircuit(
    om: OrientedMatroid, x: SignVector, f: int, fprime: int
) -> SignVector:
    """The neighbour across an inseparable pair: swaps which of f, f'
    is zero, keeps every other coordinate, and obeys the sign relation
    X_f = -alpha * Y_{f'} (alpha + for contravariant, - for covariant).
    """
    kind = pair_kind(om, f, fprime)
    if kind is None:
        raise ExtensionError(f"({f},{fprime}) is separable")
    if not (om.is_general_position(f) and om.is_general_position(fprime)):
        raise ExtensionError("both pair elements must be in general position")
    alpha = PLUS if kind == "contravariant" else MINUS
    if x[fprime] == 0 and x[f] != 0:
        zero_at, known = f, fprime
        relation = lambda y: x[f] == -alpha * y[fprime]
    elif x[f] == 0 and x[fprime] != 0:
        zero_at, known = fprime, f
        relation = lambda y: x[fprime] == -alpha * y[f]
    else:
        raise ExtensionError("exactly one of X_f, X_f' must vanish")
    others = [e for e in range(om.n) if e not in (f, fprime)]
    for y in om.cocircuits:
        if y[zero_at] != 0:
            continue
        if all(y[e] == x[e] for e in others) and relation(y):
            return y
    raise ExtensionError("no corresponding cocircuit found")


def swap_isomorphism_check(om: OrientedMatroid, spec: LexExtensionSpec) -> bool:
    """Negating the tail signs swaps the roles of the head element f and
    the new one p: om[f^a1, e2^-a2, ...] with f and p exchanged is
    om[f^a1, e2^a2, ...], after reorienting both f and p when a1 = -."""
    if not om.is_uniform():
        raise ExtensionError("uniform oriented matroid required")
    f, a1 = spec.terms[0]
    if not om.is_general_position(f):
        raise ExtensionError("head element must be in general position")
    o2 = lex_extend(om, spec)
    alt = LexExtensionSpec(((f, a1),) + tuple((e, -a) for e, a in spec.terms[1:]))
    o3 = _swapped(lex_extend(om, alt), f, om.n)
    if a1 == MINUS:
        o3 = o3.reorient({f, om.n})
    return o3 == o2


def _swapped(om: OrientedMatroid, i: int, j: int) -> OrientedMatroid:
    """om with elements i and j exchanged: its chirotope relabelled by
    the transposition."""
    perm = list(range(om.n))
    perm[i], perm[j] = j, i
    return OrientedMatroid(om.chirotope.relabel(perm))


# ---------------------------------------------------------------------------
# mutation creation and destruction
# ---------------------------------------------------------------------------

def creation_check(
    om: OrientedMatroid, spec: LexExtensionSpec
) -> Optional[MutationCertificate]:
    """After om[f^+, e_1^+, ..., e_{r-1}^+], the basis
    {f, f', e_1, ..., e_{r-2}} must certify a mutation."""
    if not om.is_uniform():
        raise ExtensionError("uniform oriented matroid required")
    if len(spec.terms) != om.rank:
        raise ExtensionError("full-length spec required")
    if any(a != PLUS for _, a in spec.terms):
        raise ExtensionError("creation check takes an all-plus spec")
    ext = lex_extend(om, spec)
    f = spec.terms[0][0]
    mids = [e for e, _ in spec.terms[1 : om.rank - 1]]
    basis = (f, om.n, *mids)
    return mutation_from_basis(ext, basis)


def orient_tope_positive(
    om: OrientedMatroid, cert: MutationCertificate
) -> tuple[OrientedMatroid, MutationCertificate, frozenset[int]]:
    """Reorient so the certificate tope is the all-plus tope, and the
    certificate with it.  The base cocircuits conform to the tope, so
    they become nonnegative, each + on its own basis element: the
    normalization `mutation_from_basis` picks on the reoriented oriented
    matroid, which is the test oracle."""
    mask = cert.tope.mm
    neg = frozenset(bits(mask))
    if not neg:
        return om, cert, neg
    cert2 = MutationCertificate(
        cert.basis,
        tuple((e, x.reorient(mask)) for e, x in cert.base_cocircuits),
        cert.tope.reorient(mask),
    )
    return om.reorient(neg), cert2, neg


@dataclass(frozen=True)
class DestructionReport:
    extension: OrientedMatroid
    fprime: int
    new_certificate: Optional[MutationCertificate]
    lift_adjacency: dict  # lift sign -> adjacent cocircuit count
    decertified: bool
    reoriented: frozenset[int]


def destruction_check(
    om: OrientedMatroid, cert: MutationCertificate, f: int, g: int
) -> DestructionReport:
    """Extend by [f^+, g^-, ...] against a mutation containing f but not
    g, the tail being the first r - 2 other elements with sign +: the
    shifted basis (f' for f) must re-certify, and the old tope picks up
    extra walls (no longer simplicial for rank >= 3)."""
    if not om.is_uniform():
        raise ExtensionError("uniform oriented matroid required")
    if f not in cert.basis or g in cert.basis or f == g:
        raise ExtensionError("need f in the mutation basis and g outside it")
    om0, cert0, neg = orient_tope_positive(om, cert)
    y = cert0.cocircuit_for(f)
    if y[g] != PLUS:
        raise ExtensionError("the f-base cocircuit must have g = +")
    terms = [(f, PLUS), (g, MINUS)]
    fill = [e for e in range(om.n) if e not in (f, g)]
    terms.extend((e, PLUS) for e in fill[: om.rank - 2])
    ext = lex_extend(om0, LexExtensionSpec(tuple(terms)))
    fp = om0.n
    rest = tuple(e for e in cert.basis if e != f)
    new_cert = mutation_from_basis(ext, (fp,) + rest)
    lift_adjacency = {}
    all_topes = topes(ext)
    for s in (PLUS, MINUS):
        lift = cert0.tope.append(s)
        if lift in all_topes:
            lift_adjacency[s] = len(adjacent_cocircuits(ext, lift))
    decert = any(count > om.rank for count in lift_adjacency.values())
    return DestructionReport(ext, fp, new_cert, lift_adjacency, decert, neg)


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def perturb_extension(
    om_ext: OrientedMatroid, x: SignVector, e: int, new_sign: int = MINUS
) -> OrientedMatroid:
    """Move the pseudosphere of e off (or onto) the vertex x.

    The e-values of all other old cocircuits are preserved; x takes
    new_sign at e.  Internally e is deleted and re-extended from the
    modified localization, so cocircuits created or absorbed by the move
    come out right; a result that is no oriented matroid raises
    PerturbationError.
    """
    if x not in om_ext.cocircuits:
        raise PerturbationError("x is not a cocircuit")
    if x[e] == new_sign:
        raise PerturbationError("x already carries that sign at e")
    keep = [i for i in range(om_ext.n) if i != e]
    base = om_ext.minor(delete={e})
    sigma: dict[SignVector, int] = {}
    for w in om_ext.cocircuits:
        w0 = w.restrict(keep)
        if w0 in base.cocircuits:
            prev = sigma.get(w0)
            if prev is not None and prev != w[e]:
                raise PerturbationError("ambiguous localization for the extension")
            sigma[w0] = w[e]
    missing = [w0 for w0 in base.cocircuits if w0 not in sigma]
    if missing:
        raise PerturbationError("extension does not cover the deletion's cocircuits")
    x0 = x.restrict(keep)
    if x0 not in base.cocircuits:
        raise PerturbationError("x does not restrict to a cocircuit without e")
    sigma[x0] = new_sign
    sigma[-x0] = -new_sign
    try:
        return extend_by_localization(base, sigma, pos=e)
    except InvalidCocircuits as exc:
        raise PerturbationError(f"perturbed set: {exc}") from None


# ---------------------------------------------------------------------------
# flip / lexicographic-extension exchange, Mandel pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommuteReport:
    equal: bool
    extend_then_flip: OrientedMatroid
    flip_then_extend_then_flip: OrientedMatroid
    m_is_mutation: bool
    mprime_is_mutation: bool

    def __bool__(self) -> bool:
        return self.equal


def _flip_shifted(ext: OrientedMatroid, basis: tuple[int, ...], when: str):
    """Flip a uniform extension at the shifted basis, which the sign
    test must find to be a mutation."""
    if not ext.chirotope.is_mutation(mask_of(basis)):
        raise ExtensionError(f"shifted basis is not a mutation {when}")
    return flip_basis(ext, basis)


def _extend_then_flip(
    om: OrientedMatroid, basis_order: tuple[int, ...], g: int, check_hypotheses: bool
):
    """The guards, then om reoriented so that the mutation basis_order =
    (f, e2, ..., er) has the all-plus tope, extended by
    [f+, g-, e3-, ..., er-] and flipped at (f', e2, ..., er).  Returns the
    reoriented om, its reoriented elements, the spec and the flip."""
    if not om.is_uniform():
        raise ExtensionError("uniform oriented matroid required")
    f = basis_order[0]
    if g in basis_order:
        raise ExtensionError("g must avoid the mutation")
    cert = mutation_from_basis(om, basis_order)
    if cert is None:
        raise ExtensionError(f"{basis_order} is not a mutation basis")
    if check_hypotheses:
        if not all_programs_euclidean(flip_basis(om, basis_order)):
            raise ExtensionError("the flipped oriented matroid is not Euclidean")
        if om.rank > 4 and not all_programs_euclidean(om.contract({f})):
            raise ExtensionError("om / f is not Euclidean")
    om0, _, neg = orient_tope_positive(om, cert)
    spec = LexExtensionSpec(
        ((f, PLUS), (g, MINUS)) + tuple((e, MINUS) for e in basis_order[2:])
    )
    shifted = (om.n,) + basis_order[1:]
    flipped = _flip_shifted(lex_extend(om0, spec), shifted, "after extension")
    return om0, neg, spec, flipped


def flip_lex_commute_check(
    om: OrientedMatroid, basis_order: Sequence[int], g: int
) -> CommuteReport:
    """Extending then flipping the shifted mutation agrees (under the
    f <-> f' swap) with flipping first, extending with flipped tail
    signs, and flipping again."""
    basis_order = tuple(basis_order)
    om0, _, _, o_fp_mp = _extend_then_flip(om, basis_order, g, False)
    f, fp, tail = basis_order[0], om.n, basis_order[2:]
    shifted = (fp,) + basis_order[1:]

    o_m = flip_basis(om0, basis_order)
    spec2 = LexExtensionSpec(((f, PLUS), (g, PLUS)) + tuple((e, PLUS) for e in tail))
    o_m_fp_mp = _flip_shifted(lex_extend(o_m, spec2), shifted, "after flip+extension")

    equal = _swapped(o_m_fp_mp, f, fp) == o_fp_mp
    chi = o_fp_mp.chirotope
    m_mut = chi.is_mutation(mask_of(basis_order))
    mp_mut = chi.is_mutation(mask_of(shifted))
    return CommuteReport(equal, o_fp_mp, o_m_fp_mp, m_mut, mp_mut)


@dataclass(frozen=True)
class MandelPipelineResult:
    om_extended: OrientedMatroid
    fprime: int
    spec: LexExtensionSpec
    mutation: tuple[int, ...]
    g: int
    deletion_ok: bool
    program_verdicts: dict  # infinity element -> Euclidean?
    reoriented: frozenset[int]

    @property
    def ok(self) -> bool:
        return self.deletion_ok and all(self.program_verdicts.values())

    def to_json(self) -> dict:
        return {
            "fprime": self.fprime,
            "spec": self.spec.to_string(),
            "mutation": list(self.mutation),
            "g": self.g,
            "deletion_ok": self.deletion_ok,
            "program_verdicts": {str(e): v for e, v in self.program_verdicts.items()},
            "ok": self.ok,
        }


def mandel_from_euclidean_mutant(
    om: OrientedMatroid,
    basis_order: Sequence[int],
    g: int,
    check_hypotheses: bool = True,
) -> MandelPipelineResult:
    """Cut a vertex off the flipped mutation and flip it back: the new
    element witnesses Euclideaness of every program targeting it.

    basis_order = (f, e2, e3, ..., er) with f the head of the extension
    and e2 the basis element left out of the priority list; g avoids the
    mutation.  Hypotheses: the flip of the mutation is Euclidean, and
    om/f is Euclidean (automatic in rank 4, checked above that).
    """
    basis_order = tuple(basis_order)
    _, neg, spec, flipped = _extend_then_flip(om, basis_order, g, check_hypotheses)
    fp = om.n
    result = flipped.reorient(neg) if neg else flipped
    deletion_ok = result.minor(delete={fp}) == om
    # the programs (e, f') have the verdicts of their mirrors (f', e),
    # which share one g and so one path table
    programs = [(fp, e) for e in range(om.n)]
    verdicts = {e: ok for (_, e), ok in _verdicts(result, programs)}
    return MandelPipelineResult(
        result, fp, spec, basis_order, g, deletion_ok, verdicts, neg
    )


def _mandel_pipeline_results(
    om: OrientedMatroid, mutation: Sequence[int]
) -> Iterator[MandelPipelineResult]:
    """`mandel_from_euclidean_mutant` on a mutation whose flip is
    Euclidean, for each head in basis order and each g avoiding the
    mutation in ascending order; attempts that raise ExtensionError are
    skipped."""
    for f in mutation:
        order = (f,) + tuple(e for e in mutation if e != f)
        for g in range(om.n):
            if g in mutation:
                continue
            try:
                result = mandel_from_euclidean_mutant(
                    om, order, g, check_hypotheses=False
                )
            except ExtensionError:
                continue
            yield result
