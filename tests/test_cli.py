"""CLI workflows and their exit-code contract."""

import json
from pathlib import Path

import pytest

from pvml.cli import main
from pvml.core import REAL
from pvml.data import ColumnarSchema, FieldProcessor, TransformSpec, fit_transformers
from pvml.optimize import AdaGrad, LinearSgdTrainer
from pvml.provenance import (
    PInt,
    config_section,
    config_to_json,
    extract_configuration,
    from_json_value,
    instance_section,
    object_provenance,
    to_json_value,
)
from pvml.trees import CartTrainer, TreeConfig

from conftest import write_classification_csv


@pytest.fixture
def workspace(tmp_path, clf_schema):
    """CSV + schema/trainer config files, as a user would lay them out."""
    data = tmp_path / "train.csv"
    write_classification_csv(data)

    schema_path = tmp_path / "schema.json"
    schema_path.write_text(config_to_json(extract_configuration(clf_schema.provenance())))

    trainer = LinearSgdTrainer("logistic", AdaGrad(0.3), epochs=25, batch_size=4, seed=13)
    trainer_path = tmp_path / "trainer.json"
    trainer_path.write_text(config_to_json(extract_configuration(trainer.provenance())))

    tree_trainer_path = tmp_path / "tree-trainer.json"
    tree_trainer_path.write_text(
        config_to_json(extract_configuration(CartTrainer(TreeConfig(max_depth=3, seed=5)).provenance()))
    )

    return {
        "dir": tmp_path,
        "data": str(data),
        "schema": str(schema_path),
        "trainer": str(trainer_path),
        "tree_trainer": str(tree_trainer_path),
        "model": str(tmp_path / "model.pvml"),
    }


def _train(ws, trainer_key="trainer"):
    return main(
        [
            "train",
            "--data", ws["data"],
            "--schema", ws["schema"],
            "--trainer", ws[trainer_key],
            "--output", ws["model"],
        ]
    )


class TestHappyPaths:
    def test_train_then_inspect(self, workspace, capsys):
        assert _train(workspace) == 0
        assert main(["inspect", "--model", workspace["model"]]) == 0
        out = capsys.readouterr().out
        assert '"trainer"' in out and '"data"' in out

    def test_predict_writes_deterministic_csv(self, workspace, tmp_path):
        assert _train(workspace) == 0
        out1, out2 = str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")
        for out in (out1, out2):
            rc = main(
                ["predict", "--model", workspace["model"], "--data", workspace["data"],
                 "--schema", workspace["schema"], "--out", out]
            )
            assert rc == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        header = Path(out1).read_text().splitlines()[0].split(",")
        assert header == ["row", "prediction", "a", "b"]

    def test_evaluate_writes_report(self, workspace, tmp_path):
        assert _train(workspace) == 0
        report = tmp_path / "report.json"
        rc = main(
            ["evaluate", "--model", workspace["model"], "--data", workspace["data"],
             "--schema", workspace["schema"], "--report", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["metrics"]["accuracy"] == 1.0
        assert "provenance" in doc

    def test_extract_config_can_drive_train_again(self, workspace, tmp_path):
        assert _train(workspace) == 0
        config = tmp_path / "extracted.json"
        assert main(["extract-config", "--model", workspace["model"], "--out", str(config)]) == 0
        model2 = str(tmp_path / "model2.pvml")
        rc = main(
            ["train", "--data", workspace["data"], "--schema", workspace["schema"],
             "--trainer", str(config), "--output", model2]
        )
        assert rc == 0
        assert main(["diff", "--left", workspace["model"], "--right", model2]) == 0

    def test_reproduce_and_diff_only_volatile(self, workspace, tmp_path, capsys):
        assert _train(workspace) == 0
        model2 = str(tmp_path / "model2.pvml")
        assert main(["reproduce", "--model", workspace["model"], "--output", model2]) == 0
        assert main(["diff", "--left", workspace["model"], "--right", model2]) == 0
        out = capsys.readouterr().out
        assert "[volatile]" in out  # timestamps differ, and that is all

    def test_inspect_redacted(self, workspace, capsys):
        assert _train(workspace) == 0
        assert main(["inspect", "--model", workspace["model"], "--redact"]) == 0
        out = capsys.readouterr().out
        assert "provenance-hash" in out
        assert workspace["data"] not in out  # path is confidential content


class TestTransformFlag:
    def test_pipeline_records_transform(self, workspace, tmp_path, clf_csv):
        _, schema = clf_csv
        from pvml.core import build_dataset
        from pvml.data import load_csv

        ds = build_dataset(load_csv(workspace["data"], schema))
        tmap = fit_transformers(ds, TransformSpec("zscore", ("f1", "f2")))
        transform_path = tmp_path / "transform.json"
        transform_path.write_text(config_to_json(extract_configuration(tmap.provenance)))

        rc = main(
            ["train", "--data", workspace["data"], "--schema", workspace["schema"],
             "--trainer", workspace["tree_trainer"], "--output", workspace["model"],
             "--transform", str(transform_path)]
        )
        assert rc == 0
        container = json.loads(Path(workspace["model"]).read_text())
        prov = from_json_value(container["provenance"])
        transformations = instance_section(instance_section(prov)["data"])["transformations"]
        assert len(transformations) == 1


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["train", "--data", "x.csv"]) == 1

    def test_unknown_subcommand_is_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_data_file_is_2(self, workspace):
        rc = main(
            ["train", "--data", str(workspace["dir"] / "nope.csv"), "--schema", workspace["schema"],
             "--trainer", workspace["trainer"], "--output", workspace["model"]]
        )
        assert rc == 2

    def test_task_mismatch_is_3(self, workspace, tmp_path):
        assert _train(workspace) == 0
        reg_schema = ColumnarSchema("f2", REAL, (FieldProcessor("f1", "numeric"),))
        schema_path = tmp_path / "reg-schema.json"
        schema_path.write_text(config_to_json(extract_configuration(reg_schema.provenance())))
        rc = main(
            ["evaluate", "--model", workspace["model"], "--data", workspace["data"],
             "--schema", str(schema_path), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 3

    def test_failed_predict_leaves_no_file(self, workspace, tmp_path):
        assert _train(workspace) == 0
        score = tmp_path / "score.csv"
        rows = ["f1,f2,color"] + [f"0.{i},1.0,red" for i in range(5)] + [",,purple", "2.0,0.5,blue"]
        score.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out" / "predictions.csv"
        out.parent.mkdir()
        rc = main(
            ["predict", "--model", workspace["model"], "--data", str(score),
             "--schema", workspace["schema"], "--out", str(out)]
        )
        assert rc == 2  # the sixth row shares no feature with the model
        assert list(out.parent.iterdir()) == []

    def test_changed_data_reproduce_is_2(self, workspace):
        assert _train(workspace) == 0
        with open(workspace["data"], "a", encoding="utf-8") as fh:
            fh.write("7.7,7.7,red,a\n")
        rc = main(["reproduce", "--model", workspace["model"], "--output", workspace["model"] + ".2"])
        assert rc == 2

    def test_reproduction_mismatch_is_4(self, workspace):
        assert _train(workspace, trainer_key="tree_trainer") == 0
        # forge the recorded example count so the rebuilt hash cannot match
        container = json.loads(Path(workspace["model"]).read_text())
        prov = from_json_value(container["provenance"])
        data = instance_section(prov)["data"]
        forged_data = object_provenance(
            data.class_name,
            config=dict(config_section(data).entries),
            instance={**dict(instance_section(data).entries), "num-examples": PInt(999)},
        )
        forged = object_provenance(
            prov.class_name,
            config=dict(config_section(prov).entries),
            instance={**dict(instance_section(prov).entries), "data": forged_data},
        )
        container["provenance"] = to_json_value(forged)
        with open(workspace["model"], "w") as fh:
            json.dump(container, fh)
        rc = main(["reproduce", "--model", workspace["model"], "--output", workspace["model"] + ".2"])
        assert rc == 4

    def test_diff_nonvolatile_difference_is_1(self, workspace, tmp_path):
        assert _train(workspace) == 0
        other = str(tmp_path / "other.pvml")
        rc = main(
            ["train", "--data", workspace["data"], "--schema", workspace["schema"],
             "--trainer", workspace["tree_trainer"], "--output", other]
        )
        assert rc == 0
        assert main(["diff", "--left", workspace["model"], "--right", other]) == 1
