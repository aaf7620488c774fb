"""CLI workflows and their exit-code contract."""

import json
from pathlib import Path

import pytest

from pvml.cli import main
from pvml.core import REAL
from pvml.data import ColumnarSchema, FieldProcessor, TransformSpec, fit_transformers
from pvml.optimize import AdaGrad, LinearSgdTrainer
from pvml.persist import load_model
from pvml.provenance import (
    PInt,
    PStr,
    canonical_encode,
    config_to_json,
    extract_configuration,
    from_json_value,
    object_provenance,
    provenance_hash,
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

    def test_reproduce_hashes_each_record_once(self, workspace, tmp_path, monkeypatch, capsys):
        """The loaded record and the rebuilt one are hashed once each, and the
        line printed is the rebuilt model's hash."""
        import pvml.cli
        import pvml.repro

        assert _train(workspace) == 0
        hashed = []
        for module in (pvml.cli, pvml.repro):
            monkeypatch.setattr(module, "provenance_hash", lambda v, real=module.provenance_hash: hashed.append(v) or real(v))
        capsys.readouterr()
        model2 = str(tmp_path / "model2.pvml")
        assert main(["reproduce", "--model", workspace["model"], "--output", model2]) == 0
        rebuilt = load_model(model2).provenance
        assert [canonical_encode(v) for v in hashed] == [
            canonical_encode(load_model(workspace["model"]).provenance), canonical_encode(rebuilt)
        ]
        assert capsys.readouterr().out == f"reproduced model; provenance-hash {provenance_hash(rebuilt)}\n"

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
        transformations = prov.instance["data"].instance["transformations"]
        assert len(transformations) == 1


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["train", "--data", "x.csv"]) == 1

    def test_unknown_subcommand_is_1(self):
        assert main(["frobnicate"]) == 1

    def test_the_one_parser_serves_command_after_command(self, workspace, capsys):
        # the parser is built once per process: a usage error after a
        # successful command is still one, and the next command still runs
        assert _train(workspace) == 0
        assert main(["train", "--data", workspace["data"]]) == 1
        assert "required" in capsys.readouterr().err
        assert main(["inspect", "--model", workspace["model"]]) == 0
        assert main(["inspect"]) == 1
        assert _train(workspace, "tree_trainer") == 0
        assert main(["inspect", "--model", workspace["model"], "--redact"]) == 0

    def test_missing_data_file_is_2(self, workspace):
        rc = main(
            ["train", "--data", str(workspace["dir"] / "nope.csv"), "--schema", workspace["schema"],
             "--trainer", workspace["trainer"], "--output", workspace["model"]]
        )
        assert rc == 2

    def test_a_tree_deeper_than_the_recursion_limit_exits_0_or_2(self, tmp_path, capsys):
        # alternating labels over x = i: every split peels off one row
        data = tmp_path / "deep.csv"
        data.write_text("x,y\n" + "".join(f"{i},{'ab'[i % 2]}\n" for i in range(1000)))
        schema = ColumnarSchema("y", "categorical", (FieldProcessor("x", "numeric"),))
        (tmp_path / "schema.json").write_text(config_to_json(extract_configuration(schema.provenance())))
        trainer = CartTrainer(TreeConfig(max_depth=5000, min_examples_per_leaf=1))
        (tmp_path / "trainer.json").write_text(config_to_json(extract_configuration(trainer.provenance())))
        model = tmp_path / "model.pvml"
        rc = main(["train", "--data", str(data), "--schema", str(tmp_path / "schema.json"),
                   "--trainer", str(tmp_path / "trainer.json"), "--output", str(model)])
        assert rc in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        if rc == 2:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.csv", "schema.json", "trainer.json"]

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

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_control_character_in_a_categorical_cell_is_2(self, workspace, tmp_path, command, capsys):
        assert _train(workspace) == 0
        data = tmp_path / "bad.csv"
        data.write_text("f1,f2,color,label\n0.1,1.0,am\x01ber,a\n2.0,0.5,red,b\n", encoding="utf-8")
        argv = [command, "--data", str(data), "--schema", workspace["schema"]]
        if command == "train":
            argv += ["--trainer", workspace["trainer"], "--output", str(tmp_path / "other.pvml")]
        else:
            argv += ["--model", workspace["model"], "--out", str(tmp_path / "predictions.csv")]
        assert main(argv) == 2
        assert "control characters" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("column", ["", "co\x01lor"])
    def test_bad_schema_column_name_is_2(self, workspace, tmp_path, command, column, capsys):
        assert _train(workspace) == 0
        schema = tmp_path / "bad-schema.json"
        schema.write_text(Path(workspace["schema"]).read_text().replace('"color"', json.dumps(column)))
        argv = [command, "--data", workspace["data"], "--schema", str(schema)]
        if command == "train":
            argv += ["--trainer", workspace["trainer"], "--output", str(tmp_path / "other.pvml")]
        else:
            argv += ["--model", workspace["model"], "--out", str(tmp_path / "predictions.csv")]
        assert main(argv) == 2
        assert "invalid schema: feature name" in capsys.readouterr().err

    def test_zscore_over_an_overflowing_variance_is_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("f1,f2,color,label\n1e300,1,red,a\n-1e300,2,red,b\n5,3,red,a\n1e300,4,red,b\n")
        transform = tmp_path / "transform.json"
        transform.write_text(config_to_json(extract_configuration(
            object_provenance("pvml.ZScoreTransform", config={"features": PStr("*")})
        )))
        rc = main(
            ["train", "--data", str(data), "--schema", workspace["schema"], "--trainer", workspace["trainer"],
             "--output", workspace["model"], "--transform", str(transform)]
        )
        assert rc == 2
        assert "cannot fit a z-score to feature 'f1'" in capsys.readouterr().err

    def test_overflowing_feature_statistics_are_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("f1,f2,color,label\n1.7e308,1,red,a\n-1.7e308,2,red,b\n5,3,red,a\n1,4,red,b\n")
        rc = main(
            ["train", "--data", str(data), "--schema", workspace["schema"], "--trainer", workspace["tree_trainer"],
             "--output", workspace["model"]]
        )
        assert rc == 2
        assert "feature 'f1' has a non-finite statistic" in capsys.readouterr().err
        assert list(workspace["dir"].glob("model.pvml*")) == []

    @pytest.mark.parametrize("command", ["predict", "reproduce"])
    def test_non_finite_statistic_in_a_model_file_is_2(self, workspace, tmp_path, command, capsys):
        assert _train(workspace, trainer_key="tree_trainer") == 0
        container = json.loads(Path(workspace["model"]).read_text())
        container["featureDomain"]["features"]["f1"]["variance"] = "nan"
        Path(workspace["model"]).write_text(json.dumps(container))
        argv = [command, "--model", workspace["model"]]
        if command == "predict":
            argv += ["--data", workspace["data"], "--schema", workspace["schema"], "--out", str(tmp_path / "p.csv")]
        else:
            argv += ["--output", str(tmp_path / "again.pvml")]
        assert main(argv) == 2
        assert "feature 'f1' has a non-finite statistic" in capsys.readouterr().err

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
        data = prov.instance["data"]
        forged_data = object_provenance(
            data.class_name,
            config=dict(data.config.entries),
            instance={**dict(data.instance.entries), "num-examples": PInt(999)},
        )
        forged = object_provenance(
            prov.class_name,
            config=dict(prov.config.entries),
            instance={**dict(prov.instance.entries), "data": forged_data},
        )
        container["provenance"] = to_json_value(forged)
        with open(workspace["model"], "w") as fh:
            json.dump(container, fh)
        rc = main(["reproduce", "--model", workspace["model"], "--output", workspace["model"] + ".2"])
        assert rc == 4

    @pytest.mark.parametrize(
        "command, document",
        [("train", "schema"), ("train", "trainer"), ("train", "transform"), ("predict", "schema"),
         ("evaluate", "schema"), ("predict", "model"), ("evaluate", "model"), ("inspect", "model"),
         ("extract-config", "model"), ("reproduce", "model"), ("diff", "left"), ("diff", "right")],
    )
    def test_a_document_that_is_not_utf8_is_2(self, workspace, tmp_path, capsys, command, document):
        assert _train(workspace) == 0
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte order mark
        files = {**workspace, "left": workspace["model"], "right": workspace["model"],
                 "transform": str(tmp_path / "t.json"), "out": str(tmp_path / "out"), document: str(bad)}
        (tmp_path / "t.json").write_text('{"config": []}', encoding="utf-8")
        argv = {
            "train": ["--data", files["data"], "--schema", files["schema"], "--trainer", files["trainer"],
                      "--transform", files["transform"], "--output", files["out"]],
            "predict": ["--model", files["model"], "--data", files["data"], "--schema", files["schema"], "--out", files["out"]],
            "evaluate": ["--model", files["model"], "--data", files["data"], "--schema", files["schema"], "--report", files["out"]],
            "inspect": ["--model", files["model"]],
            "extract-config": ["--model", files["model"], "--out", files["out"]],
            "reproduce": ["--model", files["model"], "--output", files["out"]],
            "diff": ["--left", files["left"], "--right", files["right"]],
        }[command]
        capsys.readouterr()
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid UTF-8" in err and "Traceback" not in err

    def test_diff_nonvolatile_difference_is_1(self, workspace, tmp_path):
        assert _train(workspace) == 0
        other = str(tmp_path / "other.pvml")
        rc = main(
            ["train", "--data", workspace["data"], "--schema", workspace["schema"],
             "--trainer", workspace["tree_trainer"], "--output", other]
        )
        assert rc == 0
        assert main(["diff", "--left", workspace["model"], "--right", other]) == 1


class TestScoringReplaysTheRecordedPipeline:
    """``pvml predict`` and ``pvml evaluate`` rescale rows with the fits the
    model recorded, as ``apply_transformers`` rescales a dataset."""

    def _train_zscored(self, ws, tmp_path, schema):
        from pvml.core import build_dataset
        from pvml.data import load_csv

        dataset = build_dataset(load_csv(ws["data"], schema))
        tmap = fit_transformers(dataset, TransformSpec("zscore", ("f1", "f2")))
        transform_path = tmp_path / "transform.json"
        transform_path.write_text(config_to_json(extract_configuration(tmap.provenance)))
        rc = main(
            ["train", "--data", ws["data"], "--schema", ws["schema"],
             "--trainer", ws["tree_trainer"], "--output", ws["model"],
             "--transform", str(transform_path)]
        )
        assert rc == 0
        return dataset

    def _recorded_map(self, model):
        # read by hand from the provenance, as an outside reader would
        from pvml.data import TransformerMap, ZScoreFit

        (tprov,) = model.provenance.instance["data"].instance["transformations"]
        fitted = tprov.instance["fitted"]
        fits = {name: ZScoreFit(fit["mean"].value, fit["std"].value) for name, fit in fitted.entries}
        return TransformerMap(TransformSpec("zscore", ("f1", "f2")), fits, (), tprov)

    def test_evaluate_on_the_training_csv(self, workspace, tmp_path, clf_csv):
        from pvml.data import apply_transformers
        from pvml.evaluate import evaluate_classification
        from pvml.persist import load_model
        from pvml.provenance import strip_volatile

        dataset = self._train_zscored(workspace, tmp_path, clf_csv[1])
        model = load_model(workspace["model"])
        expected = evaluate_classification(model, apply_transformers(dataset, self._recorded_map(model))).to_report()
        report_path = tmp_path / "report.json"
        rc = main(["evaluate", "--model", workspace["model"], "--data", workspace["data"],
                   "--schema", workspace["schema"], "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["metrics"] == expected["metrics"]
        assert report["confusion"] == expected["confusion"]

        def test_data(r):
            return strip_volatile(from_json_value(r["provenance"]).instance["test-data"])

        assert test_data(report) == test_data(expected)

    def test_predict_labels(self, workspace, tmp_path, clf_csv):
        from pvml.data import apply_transformers
        from pvml.persist import load_model

        dataset = self._train_zscored(workspace, tmp_path, clf_csv[1])
        model = load_model(workspace["model"])
        transformed = apply_transformers(dataset, self._recorded_map(model))
        expected = [model.predict(ex).output.label for ex in transformed.examples]
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", workspace["model"], "--data", workspace["data"],
                   "--schema", workspace["schema"], "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == expected

    @pytest.mark.parametrize("data", ["missing", "not-an-object"])
    def test_a_model_without_data_provenance_is_2(self, workspace, tmp_path, data):
        from pvml.provenance import PStr

        assert _train(workspace) == 0
        container = json.loads(Path(workspace["model"]).read_text())
        prov = from_json_value(container["provenance"])
        instance = dict(prov.instance.entries)
        if data == "missing":
            del instance["data"]
        else:
            instance["data"] = PStr("train.csv")
        edited = object_provenance(prov.class_name, config=dict(prov.config.entries), instance=instance)
        container["provenance"] = to_json_value(edited)
        Path(workspace["model"]).write_text(json.dumps(container))
        out, report = tmp_path / "preds.csv", tmp_path / "report.json"
        assert main(["predict", "--model", workspace["model"], "--data", workspace["data"],
                     "--schema", workspace["schema"], "--out", str(out)]) == 2
        assert main(["evaluate", "--model", workspace["model"], "--data", workspace["data"],
                     "--schema", workspace["schema"], "--report", str(report)]) == 2
        assert not out.exists() and not report.exists()


def test_evaluation_report_is_compact_json(workspace, tmp_path, monkeypatch):
    import pvml.cli

    assert _train(workspace) == 0
    seen = []
    real = pvml.cli.evaluate_classification
    monkeypatch.setattr(pvml.cli, "evaluate_classification", lambda *a: seen.append(real(*a)) or seen[-1])
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--model", workspace["model"], "--data", workspace["data"],
               "--schema", workspace["schema"], "--report", str(report_path)])
    assert rc == 0
    text = report_path.read_text()
    assert text.count("\n") == 1 and text.endswith("}\n") and "\n " not in text and ": " not in text
    assert json.loads(text) == seen[0].to_report()
