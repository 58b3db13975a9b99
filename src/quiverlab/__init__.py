"""Combinatorial structures attached to simply laced Dynkin quivers.

Submodules, bottom up: diagrams and quivers (`dynkin`); the module
category as labels, dimension vectors and translation quiver, with the
graded stalk calculus in the derived category, all in plain integers
(`stalks`); exact linear algebra over a fixed prime field (`_kernels`);
representations as matrices (`reps`); two-term complexes of projectives
(`complexes`); the projective-morphism category (`morphcat`); the
decorated quiver with potential (`ice`); graded hom tables over the
embedded copies (`boundary`); the preprojective algebra and the
presentation functor into it (`higgs`); the block algebra and the lift
back to labels (`lifting`); and braid words with their normal forms
(`braids`).  All of it is exact arithmetic on Python ints, and the package
needs nothing beyond the standard library.  The value types are named
tuples or slotted classes, which cost next to nothing to import.

The exports are lazy (PEP 562): `import quiverlab` loads no submodule.
Reading an exported name imports the submodule that defines it, and
reading a submodule name such as `quiverlab.reps` imports that submodule,
so a process loads only the layers it uses.
"""

import importlib

_EXPORTS = {
    "boundary": "HomTable export_hom_table gamma_hom hom_table thm1_hom thm2_hom",
    "braids": "BraidWord GarsideForm WeylElement braid_equal canonical_lift "
              "garside_element garside_normal_form is_in_B_star k0_rows project_to_weyl "
              "reduced_words star_involution",
    "dynkin": "DynkinType Quiver build_quiver coxeter_number nakayama_involution "
              "positive_roots quiver_from_json quiver_from_text quiver_to_dot quiver_to_json "
              "quiver_to_text",
    "errors": "GuardError InternalCheckError",
    "higgs": "LambdaMorphism PreprojAlgebra phi_image preprojective_algebra",
    "ice": "IceQuiver build_ice_quiver export_ice mutable_part",
    "lifting": "Conflation HiggsLift TQAlgebra hom_pair_dim is_indecomposable is_isomorphic "
               "lift_morphism realize_lift split_summands tq_algebra",
    "morphcat": "MprLabel MprObject f_power_label f_presentation hom_dim_mpr label_by_number "
                "mpr_ar_quiver mpr_indecomposables mpr_number omega_action omega_orbit "
                "omega_order presentation tau_mpr window",
    "reps": "Morphism Rep decompose ext1_dim euler_form hom_basis hom_dim injective_rep "
            "list_indecomposables min_presentation projective_rep simple_rep tau_inv_rep",
    "stalks": "ARQuiver DerivedLabel IndecLabel derived_hom e_exponent knit_ar_quiver "
              "pi2_hom",
}
# exported name -> the submodule that defines it
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "complexes")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


def memos() -> dict:
    """Every `functools` memo in the loaded quiverlab modules, by qualified name.

    Each is a module-level function keyed by hashable mathematical data (a
    quiver, a vertex, a label, ...), so its size is bounded by the quivers a
    process has seen, and clearing it frees what it built; see `cache_info()`.
    """
    import sys

    found = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname != __name__ and not modname.startswith(__name__ + "."):
            continue
        for fn in list(vars(mod).values()):
            if getattr(fn, "__module__", None) != modname:
                continue
            while fn is not None and not hasattr(fn, "cache_clear"):
                fn = getattr(fn, "__wrapped__", None)  # look through wrappers
            if fn is not None:
                found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def clear_caches() -> None:
    """Empty every in-process memo (see `memos`); results do not change."""
    for memo in memos().values():
        memo.cache_clear()


__all__ = sorted([*_ORIGIN, *_SUBMODULES, "clear_caches", "memos"])
__version__ = "0.1.0"
