import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_usage_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_usage_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_usage_block(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    lower, p_hat, upper = (float(v) for v in printed[0].split())
    assert 0.0 <= lower <= upper <= 1.0 and 0.0 <= p_hat <= 1.0
    assert namespace["z"].shape == (2000, 50)
    assert (namespace["mc"].mode, namespace["fo"].mode) == ("exact", "first_order")
    residuals = [stat.mean_residual for stat in namespace["residuals"]]
    assert printed[1] == str(residuals)
    assert residuals[0] > residuals[1] > 0.0
