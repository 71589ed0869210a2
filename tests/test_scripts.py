"""The experiment scripts in scripts/, run at reduced sizes.

Each script is loaded as a module, its size constants are shrunk, and its
``main()`` must print the full table.
"""

import importlib.util
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str, **constants):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for key, value in constants.items():
        assert hasattr(module, key), key
        setattr(module, key, value)
    return module


def test_every_script_is_covered():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == {
        "mistake_bound_curves", "sample_complexity_curve"}


def test_mistake_bound_curves(capsys):
    _load("mistake_bound_curves", SIZES=(8,), SEEDS=2, T=50).main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["learner", "n", "max", "mean", "bound"]
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("halving", "8"), ("mwmr", "8"), ("seq-elim", "8")]
    # ceil(log2 8); min(sqrt(4 ln(8) 50), 7); n - 1
    assert [r[4] for r in rows] == ["3.0", "7.0", "7.0"]
    assert all(int(r[2]) <= float(r[4]) for r in rows)


def test_sample_complexity_curve(capsys):
    _load("sample_complexity_curve", N=4, EPS=0.08, SEEDS=1).main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "round budget for eps=0.08: 11091"
    assert lines[1].split() == ["T", "mean", "loss", "max", "loss"]
    rows = [line.split() for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [11091 // 64, 11091 // 16, 11091 // 4, 11091]
    for _, mean, worst in rows:
        assert 0.0 <= float(mean) <= float(worst) <= 3 * 0.08 + 1e-12
