"""Quadratic algebras over commutative rings, exactly.

Classification of R[x]/(x^2 - tx + n) up to isomorphism over finite rings
and Z, the monoid product on classes, discriminant classes, the
Artin-Schreier group action on discriminant fibers, and a symbolic verifier
that proves the polynomial identities the constructions rest on by running
the package's own algebra code over integer polynomials.

Package attributes load on first use: `import quadrings` imports no layer
module, and the first read of any name in __all__ imports them all and
binds every exported name here, so later reads are plain attribute hits.
`python -m quadrings` thus loads only the layers its command calls.
"""

__version__ = "0.1.0"

# The exported names of each layer module, in the order they are imported.
_EXPORTS = {
    "artin_schreier": ("ASGroup", "FiberReport", "annihilator_four_torsion",
                       "as_act", "as_embed", "as_group", "check_freeness",
                       "fiber_report", "four_torsion", "is_sec_algebra",
                       "is_sec_element", "wp4_subgroup"),
    "discriminants": ("DiscClass", "DiscClassification", "Rank1Form",
                      "disc_class_of", "disc_classes", "disc_hom_check",
                      "form_is_cancellative", "form_nondegenerate",
                      "form_nonsingular", "form_semi_nondegenerate",
                      "form_semi_nonsingular", "forms_similar",
                      "is_discriminant", "sq_map"),
    "errors": ("EnumerationLimitError", "InfiniteRingError",
               "InternalCheckError", "MixedRingError", "MonoidError",
               "RingParseError"),
    "identities": ("IDENTITY_NAMES", "IdentityResult", "MultiPoly",
                   "verify_all", "verify_named_identity"),
    "monoids": ("AbelianGroup", "FiniteCommMonoid", "find_absorbing",
                "grothendieck_group", "validate_monoid"),
    "quadratic": ("AlgebraElement", "BasisChange", "Classification",
                  "IsoClass", "QuadraticAlgebra", "apply_basis_change",
                  "basis_change_group", "classify", "integer_algebra_for_disc",
                  "is_isomorphic", "quad_monoid", "separable_square_check",
                  "star_product"),
    "rings": ("IntegerRing", "ModRing", "QuotientPolyRing", "Ring",
              "RingElement", "parse_ring"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def _load() -> None:
    """Import every layer module and bind its exported names here.

    __getattr__ then goes: every exported name is bound, and CPython does
    not specialize attribute reads on a module that defines __getattr__,
    so each later `quadrings.name` read would stay slow (58 against 22 ns
    on Python 3.11.7).
    """
    from importlib import import_module
    namespace = globals()
    for layer, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{layer}")
        for name in names:
            namespace[name] = getattr(module, name)
    namespace.pop("__getattr__", None)


def __getattr__(name):
    if name in __all__:
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
