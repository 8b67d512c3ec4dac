import ofevi

# Thin wrappers that were removed: each restated a primitive that stays
# (`BasisFamily`, `basis_tables`, numpy's C-order flat index, the transform
# constructor, the target itself, the harness's own evaluation).
REMOVED = {
    ofevi: ("hermite", "legendre", "fourier", "laguerre",
            "eval_basis", "eval_basis_grad", "recurrence_z_phi",
            "fisher_divergence_empirical"),
    ofevi.harness: ("fisher_divergence_empirical",),
    ofevi.basis1d: ("hermite", "legendre", "fourier", "laguerre",
                    "eval_basis", "eval_basis_grad", "recurrence_z_phi"),
    ofevi.ProductBasis: ("flatten_index", "unflatten_index"),
    ofevi.StandardizingTransform: ("identity",),
    ofevi.ScoreCache: ("log_density",),
}


def test_public_names_resolve_once_and_removed_helpers_stay_removed():
    names = ofevi.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ofevi, n)] == []
    star = {}
    exec("from ofevi import *", star)
    assert set(names) <= set(star)
    for owner, gone in REMOVED.items():
        assert [n for n in gone if hasattr(owner, n)] == [], owner
