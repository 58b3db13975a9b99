"""Combinatorial structures attached to simply laced Dynkin quivers.

Submodules, bottom up: exact linear algebra over a fixed prime field
(`_kernels`), diagrams and quivers (`dynkin`), representations and their
translation quiver (`reps`), graded stalk calculus in the derived
category (`stalks`), two-term complexes of projectives (`complexes`),
the projective-morphism category (`morphcat`), the decorated quiver with
potential (`ice`), graded hom tables over the embedded copies
(`boundary`), the loop-algebra presentation calculus (`higgs`), and
braid words with their normal forms (`braids`).
"""

from .boundary import HomTable, export_hom_table, gamma_hom, hom_table, thm1_hom, thm2_hom
from .braids import (
    BraidWord,
    GarsideForm,
    SiltingLabel,
    WeylElement,
    braid_equal,
    canonical_lift,
    garside_element,
    garside_normal_form,
    is_in_B_star,
    k0_action,
    project_to_weyl,
    reduced_words,
    star_involution,
    triangular_extension,
)
from .dynkin import (
    DynkinType,
    Quiver,
    build_quiver,
    coxeter_number,
    nakayama_involution,
    positive_roots,
    quiver_from_json,
    quiver_from_text,
    quiver_to_dot,
    quiver_to_json,
    quiver_to_text,
)
from .errors import GuardError, InternalCheckError
from .higgs import (
    Conflation,
    HiggsLift,
    LambdaMorphism,
    PreprojAlgebra,
    TQAlgebra,
    hom_pair_dim,
    is_indecomposable,
    is_isomorphic,
    lift_morphism,
    omega_action,
    omega_orbit,
    omega_order,
    phi_image,
    preprojective_algebra,
    realize_lift,
    split_summands,
    tq_algebra,
)
from .ice import IceQuiver, build_ice_quiver, export_ice, mutable_part
from .morphcat import (
    MprLabel,
    MprObject,
    f_power_label,
    f_presentation,
    hom_dim_mpr,
    label_by_number,
    mpr_ar_quiver,
    mpr_indecomposables,
    mpr_number,
    presentation,
    tau_mpr,
    window,
)
from .reps import (
    ARQuiver,
    IndecLabel,
    Morphism,
    Rep,
    decompose,
    ext1_dim,
    euler_form,
    hom_basis,
    hom_dim,
    injective_rep,
    knit_ar_quiver,
    list_indecomposables,
    min_presentation,
    projective_rep,
    simple_rep,
    tau_inv_rep,
)
from .stalks import DerivedLabel, GradedDim, derived_hom, e_exponent, pi2_hom


def memos() -> dict:
    """Every `functools` memo in the loaded quiverlab modules, by qualified name.

    Module-level memos and memoized methods alike.  Each is keyed by hashable
    mathematical data (a quiver, a vertex, a label, ...), so its size is
    bounded by the quivers a process has seen; `cache_info()` reports it.
    """
    import sys

    found = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname != __name__ and not modname.startswith(__name__ + "."):
            continue
        for obj in list(vars(mod).values()):
            if getattr(obj, "__module__", None) != modname:
                continue
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for fn in members:
                while fn is not None and not hasattr(fn, "cache_clear"):
                    fn = getattr(fn, "__wrapped__", None)  # look through wrappers
                if fn is not None:
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def clear_caches() -> None:
    """Empty every in-process memo (see `memos`); results do not change."""
    for memo in memos().values():
        memo.cache_clear()


__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
