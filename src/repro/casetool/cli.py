"""``goldcase`` — the command-line CASE tool.

The paper's CASE tool (i) stores models as XML, (ii) validates them
against the XML Schema, and (iii) publishes HTML presentations.  This CLI
exposes the same workflow:

.. code-block:: console

   goldcase demo sales model.xml          # write an example model
   goldcase validate model.xml            # XSD + semantic validation
   goldcase validate --dtd model.xml      # baseline DTD validation
   goldcase schema goldmodel.xsd          # emit the XML Schema
   goldcase dtd goldmodel.dtd             # emit the DTD
   goldcase tree                          # Fig. 2 schema tree
   goldcase publish model.xml site/       # Fig. 6 multi-page site
   goldcase publish --single model.xml s/ # one page, internal anchors
   goldcase publish --incremental-from site/ model.xml site/
                                          # diff-driven republish
   goldcase present model.xml f1 out.html # Fig. 5 per-fact presentation
   goldcase export --sql star model.xml   # OLAP-tool (SQL) export
   goldcase olap model.xml --fact Sales --dice Time@Month --measure qty
                                          # slice/dice over synthetic data
   goldcase serve --demo                  # model-repository HTTP server

Every command accepts ``--profile [PATH]`` / ``--trace [PATH]``
(observability, DESIGN.md §10): both enable the engine's recorder and
write a schema-versioned ``trace.json`` (to PATH when given);
``--profile`` additionally prints a plain-text profile to stderr, and a
profiled ``publish`` drops an HTML profile page into the site;
``serve`` takes them only with ``--workers 1``.  Place them after the
positional arguments (or use ``--profile=PATH``), since the optional
PATH is greedy.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main", "build_parser"]


def _add_profiling_options(parser: argparse.ArgumentParser,
                           suppress: bool = False) -> None:
    """``--profile`` / ``--trace``, shared by the root and every command.

    The subcommand copies default to ``SUPPRESS`` so a value parsed
    before the subcommand name is not clobbered by the subparser.
    """
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--profile", nargs="?", const="", default=default, metavar="PATH",
        help="enable instrumentation; write trace.json (to PATH if given) "
             "and print a text profile to stderr")
    parser.add_argument(
        "--trace", nargs="?", const="", default=default, metavar="PATH",
        help="enable instrumentation; write the JSON trace only")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="goldcase",
        description="CASE tool for GOLD multidimensional models "
                    "(EDBT 2002 reproduction)")
    _add_profiling_options(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_profiling_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse
                                .ArgumentParser(parents=[common], **kw))

    demo = sub.add_parser("demo", help="write an example model as XML")
    demo.add_argument("which", choices=["sales", "retail", "synthetic"])
    demo.add_argument("output", help="output .xml path (or '-')")

    validate = sub.add_parser("validate",
                              help="validate a model document")
    validate.add_argument("model", help="model .xml path")
    validate.add_argument("--dtd", action="store_true",
                          help="use the baseline DTD instead of the schema")
    validate.add_argument("--semantic", action="store_true",
                          help="also run CASE-level semantic checks")

    schema = sub.add_parser("schema", help="emit the goldmodel XML Schema")
    schema.add_argument("output", nargs="?", default="-")

    dtd = sub.add_parser("dtd", help="emit the goldmodel DTD")
    dtd.add_argument("output", nargs="?", default="-")

    tree = sub.add_parser("tree",
                          help="render the schema as a tree (Fig. 2)")
    tree.add_argument("--html", action="store_true")

    publish = sub.add_parser("publish",
                             help="generate the HTML site (Fig. 6)")
    publish.add_argument("model", help="model .xml path")
    publish.add_argument("directory", help="output directory")
    publish.add_argument("--single", action="store_true",
                         help="single page with internal links (XSLT 1.0)")
    publish.add_argument("--no-compile", action="store_true",
                         help="force the interpreting XSLT engine instead "
                              "of the compiled closures (DESIGN.md §13); "
                              "GOLDCASE_NO_COMPILE=1 does the same")
    publish.add_argument("--incremental-from", metavar="DIR",
                         dest="incremental_from", default=None,
                         help="previous multi-page build to diff against: "
                              "only pages affected by the edit are "
                              "re-rendered, the rest reuse DIR's bytes "
                              "(DESIGN.md §14); usually the same DIR as "
                              "the output directory")

    present = sub.add_parser(
        "present", help="one per-fact-class presentation (Fig. 5)")
    present.add_argument("model", help="model .xml path")
    present.add_argument("fact", help="fact class id or name")
    present.add_argument("output", nargs="?", default="-")

    export = sub.add_parser("export",
                            help="export to an OLAP tool (SQL DDL)")
    export.add_argument("model", help="model .xml path")
    export.add_argument("--sql", choices=["star", "snowflake"],
                        default="star")
    export.add_argument("--data", action="store_true",
                        help="also emit INSERTs from a synthetic star "
                             "schema (star layout only)")
    export.add_argument("output", nargs="?", default="-")

    cwm = sub.add_parser(
        "cwm", help="CWM/XMI metadata interchange (paper §6 future work)")
    cwm.add_argument("model", help="model .xml path")
    cwm.add_argument("--plain", action="store_true",
                     help="plain CWM without the GOLD tagged-value "
                          "extension (lossy)")
    cwm.add_argument("output", nargs="?", default="-")

    sourceview = sub.add_parser(
        "sourceview", help="IE-style XML source view (paper Fig. 4)")
    sourceview.add_argument("model", help="model .xml path")
    sourceview.add_argument("output", nargs="?", default="-")

    bundle = sub.add_parser(
        "bundle", help="client-side transformation bundle (paper §6)")
    bundle.add_argument("model", help="model .xml path")
    bundle.add_argument("directory", help="output directory")

    serve = sub.add_parser(
        "serve", help="model-repository HTTP server (paper §6, DESIGN §11)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8040)
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="pre-fork N worker processes sharing the "
                            "port (SO_REUSEPORT; DESIGN §17). 1 = the "
                            "classic single-process threaded server")
    serve.add_argument("--store-dir", default=None, metavar="PATH",
                       help="build-store directory for --workers > 1 "
                            "(models + built artifacts shared across "
                            "processes; default: a temp directory)")
    serve.add_argument("--model", action="append", default=[],
                       metavar="NAME=PATH",
                       help="preload a model XML file under NAME "
                            "(bare PATH uses the file stem); repeatable")
    serve.add_argument("--demo", action="store_true",
                       help="preload the sales/retail example models")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="activate a fault plan, e.g. "
                            "'seed=7;cache.rebuild=raise:0.01' "
                            "(same grammar as GOLDCASE_FAULTS)")
    serve.add_argument("--no-compile", action="store_true",
                       help="force the interpreting XSLT engine instead "
                            "of the compiled closures (DESIGN.md §13); "
                            "GOLDCASE_NO_COMPILE=1 does the same")
    serve.add_argument("--access-log", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="write one JSON line per request (request id, "
                            "status, latency, cache flags, fault points) "
                            "to PATH, or stderr when no PATH is given")
    serve.add_argument("--slo", action="append", default=[],
                       metavar="SPEC",
                       help="add a service objective, e.g. "
                            "'p99:http.latency<5ms@1m', "
                            "'availability>=99.9%%@5m', "
                            "'ratio:http.stale/http.requests<1%%@5m'; "
                            "repeatable, replaces the defaults; evaluated "
                            "on /metrics and /dashboard")

    olap = sub.add_parser(
        "olap", help="run a slice/dice/roll-up query over a synthetic "
                     "dataset (DESIGN §16)")
    olap.add_argument("model", help="model .xml path")
    olap.add_argument("--cube", default=None,
                      help="predefined cube class id or name (excludes "
                           "the ad-hoc options below)")
    olap.add_argument("--fact", default=None, help="fact class id or name")
    olap.add_argument("--measure", action="append", default=[],
                      metavar="REF[:AGG]",
                      help="a measure, optionally with SUM/MAX/MIN/AVG/"
                           "COUNT (default SUM); repeatable")
    olap.add_argument("--dice", action="append", default=[],
                      metavar="DIM[@LEVEL]",
                      help="group by DIM at LEVEL (base grain without "
                           "@LEVEL); repeatable")
    olap.add_argument("--slice", action="append", default=[],
                      metavar="'ATTR OP VALUE'",
                      help="a slice predicate, e.g. "
                           "'Product.product_name NOTEQ \"unknown\"'; "
                           "repeatable")
    olap.add_argument("--seed", type=int, default=0,
                      help="data seed for the synthetic dataset")
    olap.add_argument("--members", type=int, default=8,
                      help="dimension members per level")
    olap.add_argument("--rows", type=int, default=2000,
                      help="fact rows per fact class")
    olap.add_argument("--format", choices=["table", "json", "xml"],
                      default="table", dest="output_format")

    fo = sub.add_parser(
        "fo", help="XSL-FO export with paginated rendering (paper §6)")
    fo.add_argument("model", help="model .xml path")
    fo.add_argument("--render", action="store_true",
                    help="render the FO document into text pages")
    fo.add_argument("output", nargs="?", default="-")

    return parser


def _write(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    print(f"wrote {path}")


def _load_model(path: str):
    from ..mdm import xml_to_model

    with open(path, "rb") as handle:
        return xml_to_model(handle.read())


def _load_previous_build(directory: str):
    """(index, pages) reloaded from a published site directory, or None
    when it holds no index :meth:`DependencyIndex.from_json` accepts.

    Missing pages are simply omitted — :func:`republish_incremental`
    notices and falls back to a full publish (reason ``missing_page``).
    """
    import os

    from ..web.incremental import INDEX_FILENAME, DependencyIndex

    try:
        with open(os.path.join(directory, INDEX_FILENAME),
                  encoding="utf-8") as handle:
            index = DependencyIndex.from_json(handle.read())
    except (OSError, ValueError):
        return None
    pages = {}
    for name in index.page_names:
        try:
            with open(os.path.join(directory, name),
                      encoding="utf-8") as handle:
                pages[name] = handle.read()
        except OSError:
            continue
    return index, pages


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    profile = getattr(args, "profile", None)
    trace_to = getattr(args, "trace", None)
    if profile is None and trace_to is None:
        return _run(args)
    if args.command == "serve" and args.workers > 1:
        # Each forked worker records into its own copy of the recorder
        # and leaves without writing it, so the trace would hold no
        # request.
        print("--profile/--trace require --workers 1", file=sys.stderr)
        return 2

    from ..obs import RECORDER, build_trace, text_report, write_trace

    RECORDER.enable(clear=True)
    try:
        code = _run(args)
    finally:
        trace = build_trace()
        RECORDER.disable()
        path = trace_to or profile or "trace.json"
        write_trace(path, trace)
        print(f"wrote {path}", file=sys.stderr)
        if profile is not None:
            sys.stderr.write(text_report(trace))
    return code


def _run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    if args.command == "demo":
        from ..mdm import (model_to_xml, sales_model, synthetic_model,
                           two_facts_model)

        factory = {"sales": sales_model, "retail": two_facts_model,
                   "synthetic": synthetic_model}[args.which]
        _write(args.output, model_to_xml(factory()))
        return 0

    if args.command == "validate":
        from ..xml import parse_file

        document = parse_file(args.model)
        if args.dtd:
            from ..dtd import parse_dtd, validate_dtd
            from ..mdm import gold_dtd_text

            report = validate_dtd(document, parse_dtd(gold_dtd_text()))
        else:
            from ..mdm import gold_schema
            from ..xsd import validate

            report = validate(document, gold_schema())
        print(report)
        exit_code = 0 if report.valid else 1
        if args.semantic and report.valid:
            from ..mdm import document_to_model, validate_model

            semantic = validate_model(document_to_model(document))
            print(semantic)
            exit_code = 0 if semantic.valid else 1
        return exit_code

    if args.command == "schema":
        from ..mdm import gold_schema_xml

        _write(args.output, gold_schema_xml())
        return 0

    if args.command == "dtd":
        from ..mdm import gold_dtd_text

        _write(args.output, gold_dtd_text())
        return 0

    if args.command == "tree":
        from ..mdm import gold_schema
        from ..web import render_schema_tree, render_schema_tree_html

        renderer = render_schema_tree_html if args.html \
            else render_schema_tree
        sys.stdout.write(renderer(gold_schema()))
        return 0

    if args.command == "publish":
        import os

        from ..web import check_site, publish_single_page
        from ..web.incremental import (INDEX_FILENAME, publish_with_index,
                                       republish_incremental)

        if args.no_compile:
            from ..xslt import set_compile_enabled

            set_compile_enabled(False)
        model = _load_model(args.model)
        index = None
        note = ""
        if args.single:
            site = publish_single_page(model)
        else:
            previous = _load_previous_build(args.incremental_from) \
                if args.incremental_from else None
            if previous is not None:
                site, index, info = republish_incremental(
                    model, previous[1], previous[0], verify_pages=True)
                if info["mode"] == "incremental":
                    note = (f" ({info['pages_rebuilt']} pages rebuilt, "
                            f"{info['pages_reused']} reused)")
                elif info["mode"] == "reuse":
                    note = " (no effective change; every page reused)"
                else:
                    note = (" (republished cold; incremental fallback: "
                            f"{info['reason']})")
            else:
                if args.incremental_from:
                    print(f"no usable {INDEX_FILENAME} under "
                          f"{args.incremental_from}; publishing cold",
                          file=sys.stderr)
                site, index = publish_with_index(model)
        written = site.write_to(args.directory)
        if index is not None:
            with open(os.path.join(args.directory, INDEX_FILENAME), "w",
                      encoding="utf-8") as handle:
                handle.write(index.to_json())
        report = check_site(site)
        print(f"{len(written)} files written to {args.directory}{note}; "
              f"{report.total_links} links checked, "
              f"{'all OK' if report.ok else 'BROKEN LINKS FOUND'}")
        return 0 if report.ok else 1

    if args.command == "present":
        from ..web import presentation_for

        model = _load_model(args.model)
        _write(args.output, presentation_for(model, args.fact))
        return 0

    if args.command == "export":
        from ..olap import snowflake_schema_sql, star_schema_sql

        model = _load_model(args.model)
        generator = star_schema_sql if args.sql == "star" \
            else snowflake_schema_sql
        sql = generator(model)
        if args.data:
            from ..olap import populate_star, star_data_sql

            star = populate_star(model, members_per_level=5,
                                 rows_per_fact=100)
            sql += "\n" + star_data_sql(star)
        _write(args.output, sql)
        return 0

    if args.command == "cwm":
        from ..cwm import cwm_to_xmi, model_to_cwm

        model = _load_model(args.model)
        schema = model_to_cwm(model, extended=not args.plain)
        _write(args.output, cwm_to_xmi(schema))
        return 0

    if args.command == "sourceview":
        from ..mdm import model_to_document
        from ..web import render_source_view

        model = _load_model(args.model)
        _write(args.output, render_source_view(
            model_to_document(model), title=f"{model.name} (source)"))
        return 0

    if args.command == "bundle":
        import os

        from ..web import client_bundle

        model = _load_model(args.model)
        bundle = client_bundle(model)
        os.makedirs(args.directory, exist_ok=True)
        files = {"model.xml": bundle.document_xml, **bundle.stylesheets}
        for name, content in files.items():
            with open(os.path.join(args.directory, name), "w",
                      encoding="utf-8") as handle:
                handle.write(content)
        print(f"{len(files)} files written to {args.directory} "
              "(open model.xml in an XSLT-capable browser)")
        return 0

    if args.command == "serve":
        import os

        from ..mdm import model_to_xml, sales_model, two_facts_model
        from ..server import (ModelRepositoryApp, ModelStoreError,
                              serve_forever)

        if args.faults:
            from ..faults import FAULTS, FaultPlan

            plan = FaultPlan.from_text(args.faults)
            FAULTS.activate(plan)
            print(f"fault plan active: {json.dumps(plan.describe())}",
                  file=sys.stderr)
        if args.no_compile:
            from ..xslt import set_compile_enabled

            set_compile_enabled(False)
        if args.workers > 1 and (args.access_log is not None or args.slo):
            # Worker telemetry is constructed inside each forked
            # process; plumbing a shared log handle or SLO list through
            # the fork is not supported yet.
            print("--access-log/--slo require --workers 1",
                  file=sys.stderr)
            return 2
        telemetry = None
        if args.access_log is not None or args.slo:
            from ..server import ServerTelemetry

            access_log = None
            if args.access_log == "-":
                access_log = sys.stderr
            elif args.access_log is not None:
                access_log = open(  # noqa: SIM115 (lives for the server)
                    args.access_log, "a", encoding="utf-8")
            slos = None
            if args.slo:
                from ..obs.slo import parse_slo

                try:
                    slos = [parse_slo(spec) for spec in args.slo]
                except ValueError as exc:
                    print(f"bad --slo: {exc}", file=sys.stderr)
                    return 2
            telemetry = ServerTelemetry(access_log=access_log, slos=slos)
        app = None
        if args.workers > 1:
            # Pre-fork mode (DESIGN §17): durable state lives in the
            # build store; preloads go straight to disk and every
            # worker picks them up through the shared pointer files.
            import tempfile

            from ..server import BuildStore, SharedModelStore

            store_dir = args.store_dir or tempfile.mkdtemp(
                prefix="goldcase-store-")
            store = SharedModelStore(BuildStore(store_dir))
        else:
            app = ModelRepositoryApp(telemetry=telemetry)
            store = app.store
        if args.demo:
            for factory in (sales_model, two_facts_model):
                model = factory()
                xml = model_to_xml(model).encode("utf-8")
                record, _ = store.put(model.id, xml)
                print(f"preloaded {record.name} "
                      f"({record.content_hash[:12]})")
        for spec in args.model:
            name, _, path = spec.rpartition("=")
            if not name:
                name = os.path.splitext(os.path.basename(path))[0]
            with open(path, "rb") as handle:
                try:
                    record, _ = store.put(name, handle.read())
                except ModelStoreError as exc:
                    print(f"refusing to preload {path}: {exc.kind}",
                          file=sys.stderr)
                    for issue in exc.issues:
                        print(f"  {issue['path'] or 'document'}: "
                              f"{issue['message']}", file=sys.stderr)
                    return 1
            print(f"preloaded {record.name} ({record.content_hash[:12]}) "
                  f"from {path}")
        if args.workers > 1:
            from ..server import serve_forever_multi

            serve_forever_multi(
                store_dir, workers=args.workers, host=args.host,
                port=args.port, quiet=args.quiet)
            return 0
        print(f"serving model repository on http://{args.host}:{args.port} "
              "(Ctrl-C to stop; /metrics and /dashboard expose telemetry)")
        serve_forever(app, host=args.host, port=args.port, quiet=args.quiet)
        return 0

    if args.command == "olap":
        import hashlib

        from ..mdm import xml_to_model
        from ..olap.engine import CubeEngine
        from ..olap.service import (DatasetConfig, QueryError, parse_query,
                                    render_json, render_xml, resolve_query,
                                    result_payload, synthesize_star)

        with open(args.model, "rb") as handle:
            xml_bytes = handle.read()
        model = xml_to_model(xml_bytes)
        params: dict[str, object] = {"seed": str(args.seed)}
        if args.cube:
            params["cube"] = args.cube
        if args.fact:
            params["fact"] = args.fact
        if args.measure:
            params["measure"] = args.measure
        if args.dice:
            params["dice"] = args.dice
        if args.slice:
            params["slice"] = args.slice
        try:
            spec = resolve_query(parse_query(params), model)
        except QueryError as exc:
            print(f"query rejected ({exc.kind}):", file=sys.stderr)
            for issue in exc.issues:
                print(f"  {issue['path'] or '/query'}: "
                      f"{issue['message']}", file=sys.stderr)
            return 1
        content_hash = hashlib.sha256(xml_bytes).hexdigest()
        config = DatasetConfig(members_per_level=args.members,
                               rows_per_fact=args.rows)
        star = synthesize_star(model, content_hash, spec.seed, config)
        result = CubeEngine(star).execute(spec.to_cube(model))
        if args.output_format == "table":
            summary = star.summary()
            print(f"dataset: {summary['fact_rows']} fact rows, "
                  f"{summary['members']} members "
                  f"(seed {spec.seed}, model {content_hash[:12]})")
            print(f"query key: {spec.query_key()}")
            print(result.pretty())
            print(f"({len(result.rows)} groups, "
                  f"{result.sliced_out} rows sliced out)")
            return 0
        payload = result_payload(model, content_hash, spec, result,
                                 dataset=star.summary())
        renderer = render_json if args.output_format == "json" \
            else render_xml
        sys.stdout.write(renderer(payload).decode("utf-8"))
        return 0

    if args.command == "fo":
        from ..web import model_to_fo, render_fo_pages
        from ..xml import pretty_print

        model = _load_model(args.model)
        if args.render:
            pages = render_fo_pages(model)
            rendered = []
            for page in pages:
                rendered.append(page.text())
                rendered.append(f"\n--- page {page.number} ---\n")
            _write(args.output, "\n".join(rendered))
        else:
            _write(args.output, pretty_print(model_to_fo(model)))
        return 0

    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
