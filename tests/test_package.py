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
