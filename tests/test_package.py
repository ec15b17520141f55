import ast
import re
import shlex
import sys
from pathlib import Path

import pytest

import partsel
from partsel.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_its_defining_modules_object():
    for name in partsel.__all__:
        value = getattr(partsel, name)
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_the_public_names():
    assert set(partsel.__all__) <= set(dir(partsel))
    assert "__version__" in dir(partsel)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partsel.no_such_name  # noqa: B018
    assert not hasattr(partsel, "pipeline_v2")


def test_errors_keep_their_identity_across_modules():
    import partsel.params
    import partsel.pipeline

    for name in ("ConfigurationError", "InputFormatError", "StrictViolationError"):
        error = getattr(partsel, name)
        assert getattr(partsel.pipeline, name) is error
        assert getattr(partsel.params, name) is error
        assert issubclass(error, ValueError)


def test_the_grid_and_the_seed_derivation_are_each_written_once():
    # The uniform grid's width is a literal only in GRID_BITS, and the seed
    # key's and the digest's byte widths only in their definitions; every
    # scale, shift, bound and byte width derives from them. The tests' own
    # oracles keep their literals, so they stay independent of these.
    package = Path(partsel.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    widths = ("GRID_BITS", "_SEED_BYTES", "_DIGEST_BYTES")
    definitions, literals, shifts, calls = [], [], [], []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] in ([w] for w in widths):
                definitions.append((module, ast.unparse(node)))
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                literals.append((module, node.value))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)):
                shifts.append(node.right)
            elif isinstance(node, ast.Call):
                calls.append(node)
    assert sorted(definitions) == [
        ("pipeline", "_DIGEST_BYTES = 8"), ("pipeline", "_SEED_BYTES = 8"), ("primitive", "GRID_BITS = 53"),
    ]
    # 53, 2**53 and 2.0**53 (whose exponent is a 53) appear once: GRID_BITS's value.
    assert [module for module, value in literals if value in (53, 2**53)] == ["primitive"]
    assert not [value for module, value in literals if value == 2**64 or module == "pipeline" and value in (11, 64)]
    assert not [right for right in shifts if isinstance(right, ast.Constant)]
    # One keyed hash, built from the derivation's widths.
    digest_sizes = [ast.unparse(k.value) for call in calls for k in call.keywords if k.arg == "digest_size"]
    key_sizes = [ast.unparse(c.args[0]) for c in calls if isinstance(c.func, ast.Attribute) and c.func.attr == "to_bytes"]
    assert (digest_sizes, key_sizes) == (["_DIGEST_BYTES"], ["_SEED_BYTES"])


def _readme_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_examples_run_as_written(tmp_path, monkeypatch):
    # 241 users, each on one of the partitions p0 to p11, which have 1 to 40
    # users; and a public list with one present and one absent key.
    rows = [f"u{i},p{j}" for i, j in enumerate(j for j in range(12) for _ in range(1 + j * 39 // 11))]
    (tmp_path / "rows.csv").write_text("user_id,partition\n" + "\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "known_keys.txt").write_text("p11\nabsent\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    release_block, steps_block = _readme_blocks("python")
    namespace: dict = {}
    exec(release_block, namespace)
    assert namespace["kept"] and namespace["counts"]
    exec(steps_block, namespace)
    assert namespace["kept"] and namespace["released"]
    prim = namespace["prim"]
    assert "# 0.3484..." in steps_block and "(11, 22)" in steps_block
    assert repr(namespace["pi_opt"](prim, 11)).startswith("0.3484")
    assert (prim.n1, prim.n2) == (11, 22)

    (cli_block,) = [block for block in _readme_blocks("sh") if block.startswith("partsel ")]
    commands = cli_block.replace("\\\n", " ").splitlines()
    assert len(commands) == 7
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "partsel"
        assert main(argv) == 0, command
        out = tmp_path / argv[argv.index("--out") + 1]
        assert out.read_text(encoding="utf-8"), command
