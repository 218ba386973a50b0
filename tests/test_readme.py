"""README's command lines and Python quickstart run, and print what README shows."""

import importlib
import re
import shlex
from pathlib import Path

from supersmooth import cli
from supersmooth.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced(language: str, marker: str) -> str:
    (block,) = [b for b in re.findall(rf"```{language}\n(.*?)```", README, re.S) if marker in b]
    return block


def _commands() -> list[tuple[list[str], list[str]]]:
    """Each `supersmooth ...` line of the command-line block with the output shown under it.

    Output is shown as `#   ` lines below a command or as `# -> value` after it.
    """
    commands = []
    for line in _fenced("sh", "supersmooth construct").splitlines():
        if line.startswith("supersmooth "):
            shown = re.findall(r"# -> (.*)$", line)
            commands.append((shlex.split(line, comments=True)[1:], shown))
        elif line.startswith("#   "):
            commands[-1][1].append(line[4:])
    return commands


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    names = [argv[0] for argv, _ in commands]
    assert names[:3] == ["construct", "check", "dim"] and "sample" in names
    for argv, shown in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if "..." in shown:
            # "..." stands for the lines README leaves out
            cut = shown.index("...")
            head, tail = shown[:cut], shown[cut + 1:]
            assert out[:cut] == head and out[len(out) - len(tail):] == tail, argv
        elif shown:
            assert out == shown, argv
    assert (tmp_path / "c.json").is_file() and (tmp_path / "grid.csv").is_file()


def test_readme_library_quickstart(capsys):
    exec(compile(_fenced("python", "from supersmooth import"), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("SmoothnessReport(")
    dimension, *origin_orders = out[1:]
    assert int(dimension) > 10  # more than the 10 global cubics
    # random C^1 cubics over three rays gain an order at the vertex
    assert len(origin_orders) == 5 and all(float(order) >= 2 for order in origin_orders)


def test_readme_module_table_names_exist():
    rows = re.findall(r"^\| `(\w+)` *\| (.*) \|$", README, re.M)
    assert {module for module, _ in rows} >= {"poly", "fan", "spline", "numcheck"}
    for module, contents in rows:
        namespace = importlib.import_module(f"supersmooth.{module}")
        for name in re.findall(r"`([^`]+)`", contents):
            if name.isidentifier():
                assert hasattr(namespace, name), (module, name)


def test_readme_caps_paragraph_names_every_cap_with_its_value():
    (paragraph,) = [p for p in README.split("\n\n") if "are capped:" in p]
    named = re.findall(r"(\d+)(?: \w+)? \(`cli\.(MAX_\w+)`\)", " ".join(paragraph.split()))
    caps = {name: value for name, value in vars(cli).items() if name.startswith("MAX_")}
    assert {name: int(value) for value, name in named} == caps
