"""Quadratic algebras over commutative rings, exactly.

Classification of R[x]/(x^2 - tx + n) up to isomorphism over finite rings
and Z, the monoid product on classes, discriminant classes, the
Artin-Schreier group action on discriminant fibers, and a symbolic verifier
for every polynomial identity the constructions rest on.
"""

from .artin_schreier import (ASGroup, FiberReport, annihilator_four_torsion,
                             as_act, as_embed, as_group, check_freeness,
                             fiber_report, four_torsion, is_sec_algebra,
                             is_sec_element, wp4_subgroup)
from .discriminants import (DiscClass, DiscClassification, Rank1Form,
                            coset_representative, disc_class_of, disc_classes,
                            disc_hom_check, form_is_cancellative,
                            form_nondegenerate, form_nonsingular,
                            form_semi_nondegenerate, form_semi_nonsingular,
                            forms_similar, is_discriminant, sq_map)
from .errors import (EnumerationLimitError, InfiniteRingError,
                     InternalCheckError, MixedRingError, MonoidError,
                     RingParseError)
from .identities import (IDENTITY_NAMES, IdentityResult, MultiPoly,
                         PolyQuadElement, TensorElement, verify_all,
                         verify_named_identity)
from .monoids import (AbelianGroup, Congruence, FiniteCommMonoid, MonoidHom,
                      cancellative_elements, congruence_from_pairs,
                      find_absorbing, grothendieck_group, image_congruence,
                      is_exact, kernel_congruence, quotient_map,
                      quotient_monoid, submonoid, validate_monoid)
from .quadratic import (AlgebraElement, BasisChange, Classification, IsoClass,
                        QuadraticAlgebra, apply_basis_change,
                        basis_change_group, classify, integer_algebra_for_disc,
                        is_isomorphic, quad_monoid, separable_square_check,
                        star_product)
from .rings import (IntegerRing, ModRing, QuotientPolyRing, Ring, RingElement,
                    enumerate_elements, ideal_membership, is_nonzerodivisor,
                    is_unit, parse_ring, units)

__version__ = "0.1.0"
