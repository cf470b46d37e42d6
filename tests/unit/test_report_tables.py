"""Unit tests for report rendering helpers and the Table I/II reproduction."""

import pytest

from repro.evaluation.report import format_float, format_table, results_directory, save_text
from repro.evaluation.tables import table_1, table_2


class TestFormatTable:
    def test_columns_aligned(self):
        text = format_table([("a", "1"), ("longer", "2")], headers=("name", "value"))
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) >= len("longer") for line in lines[2:])

    def test_handles_numbers(self):
        text = format_table([(1, 2.5)], headers=("a", "b"))
        assert "2.5" in text

    def test_format_float(self):
        assert format_float(3.14159, digits=3) == "3.142"


class TestPersistence:
    def test_save_text_creates_file(self, tmp_path):
        path = save_text("hello.txt", "content", base=str(tmp_path / "results"))
        assert path.read_text() == "content\n"

    def test_results_directory_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "artefacts"))
        directory = results_directory()
        assert directory.exists()
        assert directory.name == "artefacts"

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_text("", "x", base=str(tmp_path))


class TestTableReproductions:
    def test_table_one_has_nine_rows(self):
        table = table_1()
        assert table.n_rows == 9  # 7 XR devices + 2 edge servers
        assert table.table_id == "I"

    def test_table_one_mentions_every_device(self):
        text = table_1().to_text()
        for name in (
            "XR1",
            "XR7",
            "EDGE-AGX",
            "Huawei Mate 40 Pro",
            "OnePlus 8 Pro",
            "Motorola One Macro",
            "Xiaomi Redmi Note 8",
            "Google Glass Enterprise Edition 2",
            "Meta Quest 2",
            "Nvidia Jetson TX2",
            "Nvidia Jetson AGX Xavier",
        ):
            assert name in text

    def test_table_two_has_eleven_rows(self):
        table = table_2()
        assert table.n_rows == 11
        assert table.table_id == "II"

    def test_table_two_mentions_yolo_and_mobilenet(self):
        text = table_2().to_text()
        assert "YOLOv3" in text
        assert "MobileNetv2_300 Float" in text
        assert "EfficientNet Quant" in text
        assert "210" in text  # YOLOv3 storage size
