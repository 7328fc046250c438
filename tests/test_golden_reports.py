"""Byte identity of `report --json` across changes to the implementation.

Primitive central idempotents are unique and blocks are sorted by (degree,
coordinates), so a change to how the center is split, or to how any suite is
computed, must leave every report document byte-identical.  The digests below
were recorded from the report of each algebra before the center split was
changed from one random splitting element to refinement by the center basis.
The `check-axioms --json` and `integrals --json` digests of the certify path
were recorded before the axiom loops and the integral system were driven by
the stored structure constants.  The D(S3) and D(S3)* reports and the
`characters --json` digests were recorded before the operations on H* were
routed through the cached dual algebra and before the fusion witness became
the minimal polynomial.  The `wedderburn` text of D(S3) and D(S3)* and the
D(Q8) report were recorded before the refinement factored each distinct
minimal polynomial once and the idempotent system was certified by r
products and one centrality sweep.  The D(C4) and D(D4) reports, whose centre
eigenvalues include the roots of Phi_4, were recorded before factorisation
split off integer roots and cyclotomic factors ahead of Zassenhaus and Trager.
The D(C4)*, D(Q8)* and D(D4)* reports and the `characters --json` digests of
D(C3), D(C3)* and k^S3 were recorded before the corollary, the section4
closure and the fusion tensor were read off the identities the report checks.
In those three character tables the fusion mirror n[W*][V*][U*] = n[V][W][U]
is not a transpose: D(C3)'s duality permutation is not the identity, and
G0(k^S3) = Z[S3] is non-commutative.
"""

import hashlib

import pytest

from hopfkit import (
    builtin_group,
    builtin_grp_text,
    drinfeld_double,
    dualize,
    format_hopf,
    function_algebra,
    tensor_product,
)
from hopfkit.cli import main

GOLDEN = {
    ("C2", "group-algebra"): "fddd52cc388cffa74d7119896418d430d9986c2a15f7e568a945fc2b08f7b9ca",
    ("C2", "function-algebra"): "5d0410c868a896e48ca20875b3950bbb20c51f1216887233be06707c24a4baa9",
    ("C3", "group-algebra"): "b0ccc45b0a3c4d1f528bb04091d3801a5ee9567734774520bb46013310915b1f",
    ("C3", "function-algebra"): "29361561e7469f78fd137be02adb933569346fd6a630f038d04225d969eac9fc",
    ("C4", "group-algebra"): "a0db2f014fc9d7a7c76cd4c3cf6106268f7610c6c54c3c54bd1e68826f5dbd27",
    ("C4", "function-algebra"): "4f7afba0a532f0ea49ac0b15f36d6fc2a1b7f7ef13350dd1cc691fa9461e97d8",
    ("C2xC2", "group-algebra"): "b33a2bee59b5e6328118f6618d04fdd57c3e835e3bb94ea56814811e3a05266c",
    ("C2xC2", "function-algebra"): "c98029f1cdb4a49a600cb3e90cdb440d2ec83fbf8d82a4291fc70b6ebdc56cda",
    ("S3", "group-algebra"): "7eb798734b834c039ca343eddae8ae87f4910d4263d124f2086d99adae398249",
    ("S3", "function-algebra"): "2265f640b110b5e6bdd866424c50b6fac177bc96352e94679e9de46de21f5fa0",
    ("D4", "group-algebra"): "aa87b9c8e66871386455e662db2cd4d9a5f6c94d47253b7b002eaa9e2896f33f",
    ("D4", "function-algebra"): "7f5904f9f4c6392edb80ce44d29a912b2bba27299db110721f1a518cc66ad7c6",
    ("Q8", "group-algebra"): "0f32e69b8e7bb47df6ecc88c72a94b7a9f044d7e6f307e9100cc3e6f4c95340c",
    ("Q8", "function-algebra"): "8f508e5e5681161942b63ddcb2f745b27b560ecd3714fa5c59bd4e2006f4c5c3",
    ("C2", "double"): "6e72cbefff114a0c95a54cef5b4cd8c9693c1a68883acde0477a6b91bfb157f0",
    ("C2", "double-dual"): "b7be73872b38d3f64e38c8b6f7c65ac66dfaa9cd935a0a2cd034ffa543a101cc",
    ("C3", "double"): "fa3d39a02623f48c6ab604a9cb28a5e022a4916c2f73034f688097a8a374f9a9",
    ("C3", "double-dual"): "60511dbebd3d26c22f11376963d40c225bd217bd5e9133b12a364c2301fd15b8",
    ("S3", "double"): "5e48076e4eaca91f31ab6a6d5803e9b43d78efff31a2c400f4dee12b50240abd",
    ("S3", "double-dual"): "ae83d50f417f5ff6244af8a4610dea5acaaf9faefea781d9ea9b144c8e04401c",
    ("Q8", "double"): "d4029db3c833f3d5b6e31f804838f66e8ca15d5cd91cedb301a6bf8ff2f79d17",
    ("C4", "double"): "b8c800b659661d40ce30a4ba75a8ffc30af7ba44c522ccb59e18a38f0af8e1c6",
    ("D4", "double"): "f6a59030d035421e1856e5b30db532b3aae5aac75e1bc9bd78adf20594fc3f1f",
    ("C4", "double-dual"): "503c36a5e591a20563c9a82c7d4d323fa8b2bbe16af6f9f0a8f3d982dfd39ff8",
    ("Q8", "double-dual"): "e103a55355bd01becd774d4cf7b7aba238698d5965042cad1b1a4a8f1c1bc5d3",
    ("D4", "double-dual"): "a18710e7c761398b636d51936c277b278024c589c2142ffb231798e3e0c12308",
}


@pytest.mark.parametrize("group,kind", sorted(GOLDEN), ids=lambda v: str(v))
def test_report_json_bytes(group, kind, tmp_path, capsys):
    if kind == "double-dual":
        path = tmp_path / f"D{group}-dual.hopf"
        path.write_text(format_hopf(dualize(drinfeld_double(builtin_group(group)))))
        args = [str(path)]
    else:
        path = tmp_path / f"{group}.grp"
        path.write_text(builtin_grp_text(group))
        args = [str(path), "--as", kind]
    assert main(["report", *args, "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[group, kind]


CERTIFY_GOLDEN = {
    ("D(C2xC2)(x)D(C2)*", "check-axioms"): "f6f4438f4fc9813f56f89e0973bbfda9b70a641837e8b3ed7a7a3512dac7bba2",
    ("D(C2xC2)(x)D(C2)*", "integrals"): "012e2d488af19c0be8fda90b13320c182090e52a53e7cf13ef4006042d8e75a3",
    ("D(S3)", "check-axioms"): "e4552072560f2101ada0b4724502452e331119e6de7d9376ef389305e9578c29",
    ("D(S3)", "integrals"): "02021c2b3bf55ac9c2b18046156fe3c1581a992864c58d4cdfb1f5fe3c9a970d",
}


def _certify_algebra(name):
    if name == "D(S3)":
        return drinfeld_double(builtin_group("S3"))
    return tensor_product(drinfeld_double(builtin_group("C2xC2")), dualize(drinfeld_double(builtin_group("C2"))))


@pytest.mark.parametrize("name,command", sorted(CERTIFY_GOLDEN), ids=lambda v: str(v))
def test_certify_json_bytes(name, command, tmp_path, capsys):
    path = tmp_path / "algebra.hopf"
    path.write_text(format_hopf(_certify_algebra(name)))
    assert main([command, str(path), "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CERTIFY_GOLDEN[name, command]


CHARACTERS_GOLDEN = {
    ("S3", "double"): "ddaee7474fb67090b1e7d5af8f936f799369b4ba211e5fe36d74711ed2fc9400",
    ("Q8", "double-dual"): "3812f024d788eb0885a8cc5cd70d975d9bda9b390ffcd05a3ebbae2690395141",
    ("C3", "double"): "87e88458680a751c3083c695b807acb84f0dca253f60f67654e89d9f0a336907",
    ("C3", "double-dual"): "f61d785c02aa7ed175f3cf766bc2dcc5751152a9d4f6bdbf0d236272edc93999",
    ("S3", "function-algebra"): "0a61a573bf56df2e9346cbfbf9c44c34402abe1646164f76acd8d9249d74199c",
}


@pytest.mark.parametrize("group,kind", sorted(CHARACTERS_GOLDEN), ids=lambda v: str(v))
def test_characters_json_bytes(group, kind, tmp_path, capsys):
    if kind == "function-algebra":
        H = function_algebra(builtin_group(group))
    else:
        H = drinfeld_double(builtin_group(group))
    path = tmp_path / "algebra.hopf"
    path.write_text(format_hopf(dualize(H) if kind == "double-dual" else H))
    assert main(["characters", str(path), "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CHARACTERS_GOLDEN[group, kind]


WEDDERBURN_GOLDEN = {
    ("S3", "double"): "b4567fd2069c8a2f11a17a91f9bb94833c2d4cbb13599ef3619969dc7c0aaa01",
    ("S3", "double-dual"): "bf74b9f1f29a40eec2034140306e67ce85f5199df7f2d87543897bcd991dff73",
}


@pytest.mark.parametrize("group,kind", sorted(WEDDERBURN_GOLDEN), ids=lambda v: str(v))
def test_wedderburn_text_bytes(group, kind, tmp_path, capsys):
    # the text lists every idempotent, so it pins their coordinates and order
    H = drinfeld_double(builtin_group(group))
    path = tmp_path / "algebra.hopf"
    path.write_text(format_hopf(dualize(H) if kind == "double-dual" else H))
    assert main(["wedderburn", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == WEDDERBURN_GOLDEN[group, kind]


# -- dim 144 and 576: the doubles of A4 and S4, built from permutations --------
# Recorded before H* shared H's tensors instead of being rebuilt through the
# constructor; these are the largest duals a report reads.  Neither group is a
# built-in, so the test writes its `.grp` table.

LARGE_GOLDEN = {
    ("A4", "double"): "98ef2e2ea25242b545aca448852e35f12340670ee3394861bdae5930c764cbca",
    ("A4", "double-dual"): "f150841b8c364ea25e1241021ed9ae0f59187a7e53428f7f60ae2fac3a2082b6",
    ("S4", "double"): "fa973500aa64857c0d1fd06241f0e35e4dd91de7b7b9db58eee3ccec66059737",
    ("S4", "double-dual"): "41250f86a8408c87aa276f03fb2b435a40a42adcf580fda99401f0e0aa8ae7b6",
}


def _permutation_group(name):
    import itertools

    from hopfkit.groups import _from_permutations

    def even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0

    perms = [p for p in itertools.permutations(range(4)) if name == "S4" or even(p)]
    return _from_permutations(name, {"".join(map(str, p)): p for p in perms})


@pytest.mark.parametrize("group,kind", sorted(LARGE_GOLDEN), ids=lambda v: str(v))
def test_large_report_json_bytes(group, kind, tmp_path, capsys):
    from hopfkit.groups import format_grp

    g = _permutation_group(group)
    if kind == "double-dual":
        path = tmp_path / f"D{group}-dual.hopf"
        path.write_text(format_hopf(dualize(drinfeld_double(g))))
        args = [str(path)]
    else:
        path = tmp_path / f"{group}.grp"
        path.write_text(format_grp(g))
        args = [str(path), "--as", kind]
    assert main(["report", *args, "--json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == LARGE_GOLDEN[group, kind]
