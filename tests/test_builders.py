"""The example family constructions and their structural invariants."""

from hopfkit import (
    builtin_group,
    check_axioms,
    dualize,
    function_algebra,
    group_algebra,
    tensor_product,
)


def test_every_example_passes_axioms(examples):
    for name, h in examples.items():
        assert check_axioms(h).overall, name


def test_structure_constants_are_zero_one(examples):
    for name in ("kC2", "kS3", "kQ8", "D(C2)", "D(S3)"):
        h = examples[name]
        assert {str(c) for c in h.mult.values()} == {"1"}, name
        assert {str(c) for c in h.comult.values()} == {"1"}, name


def test_function_algebra_equals_dual_of_group_algebra():
    for name in ("C2", "S3", "Q8"):
        g = builtin_group(name)
        assert function_algebra(g) == dualize(group_algebra(g))


def test_group_algebra_shape():
    g = builtin_group("S3")
    h = group_algebra(g)
    assert h.dim == 6 and h.cyclotomic_order == 6
    # Delta(x) = x (x) x on every basis vector
    for k in range(6):
        nz = [(i, j) for i, j, _ in h.comult_nz[k]]
        assert nz == [(k, k)]


def test_double_dimensions_and_order(examples):
    assert examples["D(C2)"].dim == 4
    assert examples["D(S3)"].dim == 36
    assert examples["D(S3)"].cyclotomic_order == 6


def test_double_of_abelian_group_is_commutative(examples):
    h = examples["D(C2)"]
    assert {(j, i, k): c for (i, j, k), c in h.mult.items()} == h.mult


def test_tensor_product_structure(examples):
    t = examples["kS3(x)k^C2"]
    assert t.dim == 12
    assert t.cyclotomic_order == 6
    assert check_axioms(t).overall
    # kC2 (x) kC2 multiplies like C2 x C2
    g2 = builtin_group("C2")
    tt = tensor_product(group_algebra(g2), group_algebra(g2))
    g22 = group_algebra(builtin_group("C2xC2"))
    assert tt.mult == g22.mult and tt.unit == g22.unit


def test_dualize_commutes_with_tensor():
    a = group_algebra(builtin_group("S3"))
    b = function_algebra(builtin_group("C2"))
    assert dualize(tensor_product(a, b)) == tensor_product(dualize(a), dualize(b))


def test_function_algebra_is_its_cayley_table_definition():
    # k^G on the delta basis, read straight off the Cayley table: d_x d_y =
    # [x = y] d_x, Delta(d_x) = sum_{ab=x} d_a (x) d_b, eps(d_x) = [x = e] and
    # S(d_x) = d_{x^-1}, with 1 = sum_x d_x
    from hopfkit import builtin_names

    for name in builtin_names():
        g = builtin_group(name)
        n = g.order
        h = function_algebra(g)
        assert (h.name, h.dim, h.cyclotomic_order) == (f"k^{name}", n, g.exponent)
        assert h.mult == {(x, x, x): 1 for x in range(n)}
        assert h.comult == {(a, b, g.table[a][b]): 1 for a in range(n) for b in range(n)}
        assert list(h.unit) == [1] * n
        assert list(h.counit) == [int(x == g.identity) for x in range(n)]
        assert h.antipode == {(g.inverses[x], x): 1 for x in range(n)}
        assert check_axioms(h).overall, name
