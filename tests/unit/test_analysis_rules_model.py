"""Fixture tests for the model-invariant rules: REP001, REP002, REP003.

Each rule gets at least one clean snippet and two violating ones, plus its
scoping behavior (rules only fire inside the ``src/repro`` tree, and
REP001 exempts the ``telemetry`` subpackage).
"""

from __future__ import annotations

from repro.analysis import run_lint


def lint(tmp_path, source, rule, rel="src/repro/mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([rel], root=tmp_path, rules=[rule]).diagnostics


class TestREP001Determinism:
    def test_clean_seeded_code_passes(self, tmp_path):
        clean = (
            "import time\n"
            "import numpy as np\n"
            "import random\n"
            "\n"
            "\n"
            "def simulate(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    local = random.Random(seed)\n"
            "    t0 = time.perf_counter()  # duration clock: allowed\n"
            "    deadline = time.monotonic() + 1.0\n"
            "    return rng.normal(), local.random(), t0, deadline\n"
        )
        assert lint(tmp_path, clean, "REP001") == []

    def test_wall_clock_time_time_flagged(self, tmp_path):
        found = lint(tmp_path, "import time\nstamp = time.time()\n", "REP001")
        assert len(found) == 1 and "time.time()" in found[0].message

    def test_datetime_now_flagged_for_module_and_class_imports(self, tmp_path):
        source = (
            "import datetime\n"
            "from datetime import datetime as dt\n"
            "a = datetime.datetime.now()\n"
            "b = dt.utcnow()\n"
            "c = datetime.date.today()\n"
        )
        found = lint(tmp_path, source, "REP001")
        assert [d.line for d in found] == [3, 4, 5]

    def test_global_random_module_calls_flagged(self, tmp_path):
        source = "import random\nx = random.random()\ny = random.randint(0, 5)\n"
        found = lint(tmp_path, source, "REP001")
        assert len(found) == 2
        assert all("random.Random(seed)" in d.message for d in found)

    def test_unseeded_constructors_flagged_but_seeded_pass(self, tmp_path):
        source = (
            "import random\n"
            "import numpy as np\n"
            "bad_rng = np.random.default_rng()\n"
            "bad_local = random.Random()\n"
            "ok_rng = np.random.default_rng(0)\n"
            "ok_local = random.Random(7)\n"
        )
        found = lint(tmp_path, source, "REP001")
        assert [d.line for d in found] == [3, 4]
        assert all("unseeded" in d.message for d in found)

    def test_legacy_numpy_global_rng_flagged_under_any_alias(self, tmp_path):
        source = (
            "import numpy as np\n"
            "from numpy import random as nprandom\n"
            "a = np.random.rand(3)\n"
            "b = nprandom.shuffle([1, 2])\n"
        )
        found = lint(tmp_path, source, "REP001")
        assert [d.line for d in found] == [3, 4]

    def test_telemetry_subpackage_is_exempt(self, tmp_path):
        source = "import time\nstamp = time.time()\n"
        assert lint(tmp_path, source, "REP001", rel="src/repro/telemetry/clock.py") == []

    def test_tests_tree_is_out_of_scope(self, tmp_path):
        source = "import time\nstamp = time.time()\n"
        assert lint(tmp_path, source, "REP001", rel="tests/unit/test_x.py") == []


class TestREP002RoundTrip:
    def test_complete_round_trip_passes(self, tmp_path):
        clean = (
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Point:\n"
            "    x: float\n"
            "    y: float\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {'x': self.x, 'y': self.y}\n"
            "\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(x=payload['x'], y=payload['y'])\n"
        )
        assert lint(tmp_path, clean, "REP002") == []

    def test_asdict_counts_as_total_serialization(self, tmp_path):
        clean = (
            "from dataclasses import asdict, dataclass\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Blob:\n"
            "    a: int\n"
            "    b: int\n"
            "\n"
            "    def to_dict(self):\n"
            "        return asdict(self)\n"
            "\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(**payload)\n"
        )
        assert lint(tmp_path, clean, "REP002") == []

    def test_dropped_field_in_to_dict_flagged(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Partial:\n"
            "    kept: int\n"
            "    dropped: int = 0\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {'kept': self.kept}\n"
        )
        found = lint(tmp_path, source, "REP002")
        assert len(found) == 1
        assert "dropped" in found[0].message and "to_dict" in found[0].message

    def test_dropped_field_in_from_dict_flagged(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Partial:\n"
            "    kept: int\n"
            "    lost: int = 0\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {'kept': self.kept, 'lost': self.lost}\n"
            "\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(kept=payload['kept'])\n"
        )
        found = lint(tmp_path, source, "REP002")
        assert len(found) == 1
        assert "from_dict" in found[0].message and "lost" in found[0].message

    def test_classvars_underscores_and_plain_classes_ignored(self, tmp_path):
        clean = (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Meta:\n"
            "    value: int\n"
            "    registry: ClassVar[dict] = {}\n"
            "    _cache: int = 0\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {'value': self.value}\n"
            "\n"
            "\n"
            "class NotADataclass:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        )
        assert lint(tmp_path, clean, "REP002") == []


class TestREP003PoolSafety:
    def test_module_level_function_passes(self, tmp_path):
        clean = (
            "def task(payload):\n"
            "    return payload\n"
            "\n"
            "\n"
            "def fan_out(pool, items):\n"
            "    return [pool.submit(task, item) for item in items]\n"
        )
        assert lint(tmp_path, clean, "REP003") == []

    def test_lambda_flagged(self, tmp_path):
        source = "def fan_out(pool):\n    return pool.submit(lambda: 1)\n"
        found = lint(tmp_path, source, "REP003")
        assert len(found) == 1 and "lambda" in found[0].message

    def test_closure_flagged_for_map_tasks(self, tmp_path):
        source = (
            "def fan_out(backend, items):\n"
            "    def task(payload):\n"
            "        return payload\n"
            "\n"
            "    return backend.map_tasks(task, items, max_workers=2)\n"
        )
        found = lint(tmp_path, source, "REP003")
        assert len(found) == 1 and "closure" in found[0].message

    def test_bound_method_flagged(self, tmp_path):
        source = (
            "class Runner:\n"
            "    def task(self, payload):\n"
            "        return payload\n"
            "\n"
            "    def fan_out(self, pool, items):\n"
            "        return [pool.submit(self.task, item) for item in items]\n"
        )
        found = lint(tmp_path, source, "REP003")
        assert len(found) == 1 and "bound method" in found[0].message

    def test_unrelated_submit_like_calls_pass(self, tmp_path):
        clean = (
            "def enqueue(form):\n"
            "    return form.submit()\n"
        )
        assert lint(tmp_path, clean, "REP003") == []
