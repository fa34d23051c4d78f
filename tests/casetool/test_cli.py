"""The goldcase CLI: all subcommands end to end."""

import json
import os

import pytest

from repro.casetool import main
from repro.web.incremental import INDEX_FILENAME


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.xml"
    assert main(["demo", "sales", str(path)]) == 0
    return path


def _site_files(directory) -> dict[str, bytes]:
    """Every file of a published site but its dependency index."""
    return {name: (directory / name).read_bytes()
            for name in os.listdir(directory) if name != INDEX_FILENAME}


class TestDemo:
    def test_writes_model(self, tmp_path):
        path = tmp_path / "m.xml"
        assert main(["demo", "retail", str(path)]) == 0
        assert path.read_text().startswith("<?xml")

    def test_stdout(self, capsys):
        assert main(["demo", "sales", "-"]) == 0
        assert "<goldmodel" in capsys.readouterr().out

    def test_all_demo_variants(self, tmp_path):
        for which in ("sales", "retail", "synthetic"):
            assert main(["demo", which, str(tmp_path / f"{which}.xml")]) \
                == 0


class TestValidate:
    def test_valid_model(self, model_file, capsys):
        assert main(["validate", str(model_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_semantic_flag(self, model_file, capsys):
        assert main(["validate", "--semantic", str(model_file)]) == 0

    def test_dtd_flag(self, model_file):
        assert main(["validate", "--dtd", str(model_file)]) == 0

    def test_invalid_model_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text('<goldmodel id="m" name="n">'
                       "<factclasses>"
                       '<factclass id="f" name="F">'
                       '<sharedaggs><sharedagg dimclass="ghost"/>'
                       "</sharedaggs></factclass></factclasses>"
                       "<dimclasses/></goldmodel>")
        assert main(["validate", str(bad)]) == 1
        assert "keyref" in capsys.readouterr().out

    def test_dtd_accepts_what_xsd_rejects(self, tmp_path):
        sneaky = tmp_path / "sneaky.xml"
        sneaky.write_text('<goldmodel id="m" name="n">'
                          "<factclasses>"
                          '<factclass id="f" name="F">'
                          '<sharedaggs><sharedagg dimclass="f"/>'
                          "</sharedaggs></factclass></factclasses>"
                          "<dimclasses/></goldmodel>")
        assert main(["validate", "--dtd", str(sneaky)]) == 0
        assert main(["validate", str(sneaky)]) == 1


class TestSchemaAndDtd:
    def test_schema_output(self, tmp_path):
        path = tmp_path / "goldmodel.xsd"
        assert main(["schema", str(path)]) == 0
        assert "<xsd:schema" in path.read_text()

    def test_dtd_output(self, capsys):
        assert main(["dtd"]) == 0
        assert "<!ELEMENT goldmodel" in capsys.readouterr().out

    def test_tree(self, capsys):
        assert main(["tree"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("goldmodel")

    def test_tree_html(self, capsys):
        assert main(["tree", "--html"]) == 0
        assert "<html>" in capsys.readouterr().out


class TestPublish:
    def test_multi_page(self, model_file, tmp_path, capsys):
        site = tmp_path / "site"
        assert main(["publish", str(model_file), str(site)]) == 0
        assert (site / "index.html").exists()
        assert (site / "gold.css").exists()
        assert "all OK" in capsys.readouterr().out

    def test_single_page(self, model_file, tmp_path):
        site = tmp_path / "single"
        assert main(["publish", "--single", str(model_file),
                     str(site)]) == 0
        pages = [p for p in os.listdir(site) if p.endswith(".html")]
        assert pages == ["index.html"]

    @staticmethod
    def _edited_and_cold(model_file, tmp_path):
        """The sales model with dimension d1 renamed, and the files of
        its cold publish."""
        from repro.mdm import model_to_xml, xml_to_model

        model = xml_to_model(model_file.read_bytes())
        model.dimension_class("d1").name = "Renamed Time"
        edited = tmp_path / "edited.xml"
        edited.write_text(model_to_xml(model), encoding="utf-8")
        cold = tmp_path / "cold"
        assert main(["publish", str(edited), str(cold)]) == 0
        return edited, _site_files(cold)

    def test_incremental_from_rebuilds_only_the_dirty_pages(
            self, model_file, tmp_path, capsys):
        site = tmp_path / "site"
        assert main(["publish", str(model_file), str(site)]) == 0
        edited, cold = self._edited_and_cold(model_file, tmp_path)
        capsys.readouterr()
        assert main(["publish", "--incremental-from", str(site),
                     str(edited), str(site)]) == 0
        assert "8 pages rebuilt, 8 reused" in capsys.readouterr().out
        assert _site_files(site) == cold

    def test_incremental_from_an_edited_page_falls_back(
            self, model_file, tmp_path, capsys):
        site = tmp_path / "site"
        assert main(["publish", str(model_file), str(site)]) == 0
        index = json.loads((site / INDEX_FILENAME).read_text())
        reused = next(name for name, units in sorted(index["pages"].items())
                      if name != "index.html" and
                      "dimclass#d1" not in units)
        with open(site / reused, "a", encoding="utf-8") as handle:
            handle.write("<!-- edited by hand -->")
        edited, cold = self._edited_and_cold(model_file, tmp_path)
        capsys.readouterr()
        assert main(["publish", "--incremental-from", str(site),
                     str(edited), str(site)]) == 0
        assert "incremental fallback: baseline_mismatch" in \
            capsys.readouterr().out
        assert _site_files(site) == cold

    @pytest.mark.parametrize("corrupt", [
        {"model_xml": lambda xml: xml.replace("<goldmodel ", "<goldmodel", 1)},
        {"model_xml": lambda xml: xml.replace(
            "<goldmodel ", '<goldmodel extra="1" ', 1)},
        {"pages": lambda _: []},
        {"pages": lambda _: {}, "page_names": lambda _: {"index.html": 1}},
    ], ids=["malformed", "extra-attribute", "pages-list", "no-pages"])
    def test_incremental_from_an_unusable_dotfile_publishes_cold(
            self, model_file, tmp_path, capsys, corrupt):
        site = tmp_path / "site"
        assert main(["publish", str(model_file), str(site)]) == 0
        dotfile = site / INDEX_FILENAME
        index = json.loads(dotfile.read_text())
        for field, change in corrupt.items():
            index[field] = change(index[field])
        dotfile.write_text(json.dumps(index))
        edited, cold = self._edited_and_cold(model_file, tmp_path)
        capsys.readouterr()
        assert main(["publish", "--incremental-from", str(site),
                     str(edited), str(site)]) == 0
        assert f"no usable {INDEX_FILENAME}" in capsys.readouterr().err
        assert _site_files(site) == cold


class TestPresentAndExport:
    def test_present(self, model_file, tmp_path):
        out = tmp_path / "p.html"
        assert main(["present", str(model_file), "Sales", str(out)]) == 0
        assert "Presentation of fact class" in out.read_text()

    def test_export_star(self, model_file, capsys):
        assert main(["export", str(model_file)]) == 0
        assert "CREATE TABLE" in capsys.readouterr().out

    def test_export_snowflake(self, model_file, capsys):
        assert main(["export", "--sql", "snowflake", str(model_file)]) == 0
        assert "Snowflake" in capsys.readouterr().out


class TestFutureWorkCommands:
    def test_cwm_extended(self, model_file, capsys):
        assert main(["cwm", str(model_file)]) == 0
        out = capsys.readouterr().out
        assert "CWMOLAP:Schema" in out
        assert "gold.additivity" in out  # extension tags present

    def test_cwm_plain(self, model_file, capsys):
        assert main(["cwm", "--plain", str(model_file)]) == 0
        out = capsys.readouterr().out
        assert "CWMOLAP:Schema" in out
        assert "gold.additivity" not in out

    def test_sourceview(self, model_file, tmp_path):
        out = tmp_path / "view.html"
        assert main(["sourceview", str(model_file), str(out)]) == 0
        assert "&lt;goldmodel" in out.read_text()

    def test_bundle(self, model_file, tmp_path, capsys):
        directory = tmp_path / "bundle"
        assert main(["bundle", str(model_file), str(directory)]) == 0
        assert (directory / "model.xml").exists()
        assert (directory / "goldmodel.xsl").exists()
        assert (directory / "common.xsl").exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServe:
    """The serve command: parsing and preload paths (the serving loop
    itself is exercised over a real socket in tests/server/)."""

    def test_parser_accepts_serve_options(self):
        from repro.casetool.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "9001", "--demo", "--quiet",
             "--model", "m=path.xml"])
        assert args.command == "serve"
        assert args.port == 9001
        assert args.demo is True
        assert args.model == ["m=path.xml"]

    @pytest.mark.parametrize("option", ["--profile", "--trace"])
    def test_tracing_a_worker_fleet_is_refused(self, tmp_path, capsys,
                                               monkeypatch, option):
        """Each forked worker records into its own copy of the recorder,
        so a trace of the fleet would hold no request."""
        import repro.server

        def serve_forever_multi(*args, **kwargs):
            raise AssertionError("the worker fleet started")

        monkeypatch.setattr(repro.server, "serve_forever_multi",
                            serve_forever_multi)
        trace = tmp_path / "trace.json"
        assert main(["serve", "--workers", "2", "--port", "0",
                     "--store-dir", str(tmp_path / "store"),
                     f"{option}={trace}"]) == 2
        assert "--workers 1" in capsys.readouterr().err
        assert not trace.exists()

    def test_preload_rejects_invalid_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<goldmodel><bogus/></goldmodel>")
        assert main(["serve", "--model", f"bad={bad}"]) == 1
        assert "refusing to preload" in capsys.readouterr().err

    def test_preloaded_model_is_served(self, model_file):
        import json
        import urllib.request

        from repro.server import ModelRepositoryApp, ModelServer

        app = ModelRepositoryApp()
        with open(model_file, "rb") as handle:
            app.store.put("sales", handle.read())
        with ModelServer(app) as server:
            with urllib.request.urlopen(
                    f"{server.url}/models", timeout=30) as response:
                payload = json.load(response)
        assert [m["name"] for m in payload["models"]] == ["sales"]
