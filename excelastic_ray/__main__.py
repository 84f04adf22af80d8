"""CLI — the ``java -jar excelastic.jar <file> <index> [--clear] ...``
analog (``/root/reference/src/main/java/com/codingchili/excelastic/
CommandLine.java:32-64`` + ``ApplicationLauncher.java:46-48``).

    python -m excelastic_ray build  <src.parquet|dir> <index_dir> [--clear]
                                    [--shards N] [--turn-bits N] [--no-store]
    python -m excelastic_ray append <src> <index_dir>
    python -m excelastic_ray search <index_dir> "query terms" [-k N]
                                    [--filter role=user] [--actors]
                                    [--phrase [--slop N]] [--fields a,b]
                                    [--qs] [--fuzzy AUTO|N] [--sort-ts]
                                    [--from N] [--highlight]
    python -m excelastic_ray status <index_dir>
    python -m excelastic_ray serve  <index_root> [--port P] [--index-lock X]
    python -m excelastic_ray snapshot  <index_root> <repo> <name> [--indices a,b]
    python -m excelastic_ray restore   <index_root> <repo> <name> <index> [--rename X]
    python -m excelastic_ray snapshots <repo>
    python -m excelastic_ray alias     <index_root> list|add|remove|swap ...
    python -m excelastic_ray doc-index  <index_dir> --conv-id X --turn-idx N
                                        --text "..." [--overwrite]
    python -m excelastic_ray doc-delete <index_dir> <conv_id> <turn_idx>

Owns the Ray session (library code never calls ray.init)."""

from __future__ import annotations

import argparse
import json
import sys


def _ray_up(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="excelastic_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("src")
    b.add_argument("index_dir")
    b.add_argument("--clear", action="store_true")
    b.add_argument("--shards", type=int, default=None)
    b.add_argument("--turn-bits", type=int, default=None)
    b.add_argument("--no-store", action="store_true")
    b.add_argument("--pipeline", default=None,
                   help="comma-separated ingest pipelines applied "
                        "between read and validation (the reference's "
                        "--pipeline ES ingest-pipeline id)")
    b.add_argument("--mapping", default=None,
                   help="named IndexConfig preset (the reference's "
                        "--mapping ES type-mapping name)")

    a = sub.add_parser("append")
    a.add_argument("src")
    a.add_argument("index_dir")

    s = sub.add_parser("search")
    s.add_argument("index_dir")
    s.add_argument("query")
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--filter", action="append", default=[],
                   help="attr=value (repeatable)")
    s.add_argument("--actors", action="store_true")
    s.add_argument("--phrase", action="store_true",
                   help="match_phrase: terms must appear consecutively")
    s.add_argument("--slop", type=int, default=0,
                   help="sloppy-phrase window (with --phrase)")
    s.add_argument("--fields", default=None,
                   help="comma-separated fields for multi_match "
                        "(per-field BM25; most_fields)")
    s.add_argument("--qs", action="store_true",
                   help="query_string mode: field:term clauses allowed")
    s.add_argument("--combined", default=None,
                   help="comma-separated fields for combined_fields "
                        "(BM25F: one combined stream, union df)")
    s.add_argument("--cross", default=None,
                   help="comma-separated fields for cross_fields "
                        "(blended max-df idf, best-field per term)")
    s.add_argument("--qstring", action="store_true",
                   help="full Lucene query_string syntax: quotes, "
                        "parens, AND/OR/NOT, field:term, wildcards")
    s.add_argument("--fuzzy", default=None, metavar="EDITS",
                   help="fuzzy match: AUTO or max edit distance")
    s.add_argument("--wildcard", action="store_true",
                   help="wildcard query: * = any run, ? = one char")
    s.add_argument("--regexp", action="store_true",
                   help="regexp query (anchored full-term match)")
    s.add_argument("--suggest", action="store_true",
                   help="term suggester: closest dictionary terms per "
                        "query token ('did you mean')")
    s.add_argument("--terms-enum", dest="terms_enum",
                   action="store_true",
                   help="ES _terms_enum: ascending dictionary terms "
                        "under QUERY as a prefix (-k sizes the page)")
    s.add_argument("--after", default=None,
                   help="terms-enum page cursor (resume strictly "
                        "after this term)")
    s.add_argument("--collapse", default=None, metavar="ATTR",
                   help="field collapse: at most one (best) hit per "
                        "distinct value of ATTR")
    s.add_argument("--mlt", default=None, metavar="CONV:TURN",
                   help="more_like_this: docs most similar to the "
                        "given stored doc (query arg ignored)")
    s.add_argument("--must", default=None,
                   help="bool query: required (scoring) terms; the "
                        "positional query arg becomes the should clause")
    s.add_argument("--must-not", dest="must_not", default=None,
                   help="bool query: excluded (non-scoring) terms")
    s.add_argument("--msm", type=int, default=None,
                   help="bool query minimum_should_match")
    s.add_argument("--sort-ts", action="store_true",
                   help="time-ordered results (newest first) instead "
                        "of relevance")
    s.add_argument("--from", dest="offset", type=int, default=0,
                   help="pagination offset (ES from)")
    s.add_argument("--highlight", action="store_true")

    s.add_argument("--span-first", dest="span_first", type=int,
                   default=None, metavar="END",
                   help="span_first: term must start inside the first "
                        "END positions")
    s.add_argument("--span-near", dest="span_near", type=int,
                   default=None, metavar="SLOP",
                   help="span_near: two terms within SLOP, any order")
    s.add_argument("--span-not", dest="span_not", default=None,
                   metavar="EXCLUDE:DIST",
                   help="span_not: exclude term within DIST kills the "
                        "include occurrence")
    s.add_argument("--syn", action="append", default=[],
                   metavar="TERM=ALT|ALT2",
                   help="query-time synonym expansion (repeatable; "
                        "Lucene SynonymQuery scoring)")
    s.add_argument("--min-score", dest="min_score", type=float,
                   default=None,
                   help="drop hits scoring below this (ES min_score)")
    s.add_argument("--say", action="store_true",
                   help="search_as_you_type (needs an index built "
                        "with index_shingles >= 2)")
    s.add_argument("--script", default=None, metavar="EXPR",
                   help="boolean filter script over dl/turn_idx "
                        "(ES script query)")
    s.add_argument("--inner-hits", dest="inner_hits", type=int,
                   default=None, metavar="N",
                   help="with --collapse: top-N hits per group")
    s.add_argument("--fragments", dest="fragment_size", type=int,
                   default=None, metavar="SIZE",
                   help="with --highlight: snippet fragments of SIZE "
                        "chars (ES fragment_size)")

    st = sub.add_parser("status")
    st.add_argument("index_dir")

    sn = sub.add_parser("snapshot", help="snapshot indices into a repo")
    sn.add_argument("index_root")
    sn.add_argument("repo")
    sn.add_argument("name")
    sn.add_argument("--indices", default=None,
                    help="comma-separated subset (default: all complete)")

    rs = sub.add_parser("restore", help="restore an index from a snapshot")
    rs.add_argument("index_root")
    rs.add_argument("repo")
    rs.add_argument("name")
    rs.add_argument("index")
    rs.add_argument("--rename", default=None)

    ls = sub.add_parser("snapshots", help="list snapshots in a repo")
    ls.add_argument("repo")

    al = sub.add_parser("alias", help="manage index aliases")
    al.add_argument("index_root")
    al.add_argument("action", choices=["list", "add", "remove", "swap"])
    al.add_argument("names", nargs="*",
                    help="add/remove: ALIAS INDEX; swap: ALIAS OLD NEW")

    fm = sub.add_parser("forcemerge",
                        help="compact an index to fewer shards "
                             "(ES _forcemerge analog)")
    fm.add_argument("index_dir")
    fm.add_argument("--shards", type=int, default=1)

    sv = sub.add_parser("serve", help="HTTP upload/status/search server")
    sv.add_argument("index_root")
    sv.add_argument("--port", type=int, default=8080)
    sv.add_argument("--index-lock", default=None)

    di = sub.add_parser("doc-index",
                        help="index ONE turn (ES PUT /<index>/_doc)")
    di.add_argument("index_dir")
    di.add_argument("--conv-id", required=True)
    di.add_argument("--turn-idx", type=int, required=True)
    di.add_argument("--text", required=True)
    di.add_argument("--role", default="user")
    di.add_argument("--tool", default=None)
    di.add_argument("--ts", default=None, help="ISO-8601 timestamp")
    di.add_argument("--overwrite", action="store_true",
                    help="ES op_type=index (default: create — refuse "
                         "an existing doc)")

    dd = sub.add_parser("doc-delete",
                        help="tombstone ONE turn (ES DELETE _doc)")
    dd.add_argument("index_dir")
    dd.add_argument("conv_id")
    dd.add_argument("turn_idx", type=int)

    du = sub.add_parser("doc-update",
                        help="overlay attr values on ONE turn "
                             "(ES _update analog)")
    du.add_argument("index_dir")
    du.add_argument("conv_id")
    du.add_argument("turn_idx", type=int)
    du.add_argument("--set", action="append", required=True,
                    metavar="attr=value",
                    help="repeatable attribute assignment")

    bk = sub.add_parser("bulk",
                        help="apply NDJSON bulk actions (ES _bulk): "
                             "action/doc lines from a file or stdin")
    bk.add_argument("index_dir")
    bk.add_argument("file", nargs="?", default="-",
                    help="NDJSON path (default: stdin)")

    args = p.parse_args(argv)

    if args.cmd == "status":
        from excelastic_ray.index.build import build_status

        print(json.dumps(build_status(args.index_dir), indent=1))
        return 0
    if args.cmd == "snapshot":
        import os

        from excelastic_ray.index.segments import load_global_manifest
        from excelastic_ray.index.snapshot import create_snapshot

        if args.indices:
            names = args.indices.split(",")
        else:
            names = []
            for nm in sorted(os.listdir(args.index_root)):
                try:
                    m = load_global_manifest(
                        os.path.join(args.index_root, nm)
                    )
                except (FileNotFoundError, NotADirectoryError):
                    continue
                if m.get("status") == "complete":
                    names.append(nm)
        out = create_snapshot(
            args.repo, args.name,
            {nm: os.path.join(args.index_root, nm) for nm in names},
        )
        print(json.dumps(out, indent=1))
        return 0
    if args.cmd == "restore":
        from excelastic_ray.index.snapshot import restore_snapshot

        print(json.dumps(restore_snapshot(
            args.repo, args.name, args.index, args.index_root,
            rename_to=args.rename,
        ), indent=1))
        return 0
    if args.cmd == "snapshots":
        from excelastic_ray.index.snapshot import list_snapshots

        print(json.dumps({"snapshots": list_snapshots(args.repo)},
                         indent=1))
        return 0
    if args.cmd == "alias":
        from excelastic_ray.index.snapshot import (
            load_aliases,
            update_aliases,
        )

        if args.action == "list":
            print(json.dumps(load_aliases(args.index_root), indent=1))
            return 0
        if args.action in ("add", "remove"):
            if len(args.names) != 2:
                p.error("alias add/remove needs: ALIAS INDEX")
            acts = [{args.action: {"alias": args.names[0],
                                   "index": args.names[1]}}]
        else:  # swap — one atomic batch
            if len(args.names) != 3:
                p.error("alias swap needs: ALIAS OLD NEW")
            acts = [
                {"remove": {"alias": args.names[0], "index": args.names[1]}},
                {"add": {"alias": args.names[0], "index": args.names[2]}},
            ]
        print(json.dumps(update_aliases(args.index_root, acts), indent=1))
        return 0

    import ray

    owns_session = not ray.is_initialized()
    _ray_up(args.num_cpus)
    try:
        if args.cmd == "build":
            from excelastic_ray.config import IndexConfig
            from excelastic_ray.index.build import build_index

            from excelastic_ray.ingest import (
                resolve_mapping,
                resolve_pipelines,
            )

            overrides = {}
            if args.shards is not None:
                overrides["num_shards"] = args.shards
            if args.turn_bits is not None:
                overrides["turn_bits"] = args.turn_bits
            if args.no_store:
                overrides["store_source"] = False
            cfg = resolve_mapping(args.mapping, IndexConfig(**overrides))
            res = build_index(
                args.src, args.index_dir, cfg, clear=args.clear,
                transforms=resolve_pipelines(args.pipeline) or None,
            )
            print(json.dumps({
                "n_docs": res.n_docs, "n_convs": res.n_convs,
                "n_chunks": res.n_chunks, "num_shards": res.num_shards,
                "seconds": round(res.seconds, 2),
                "turns_per_sec": round(res.n_docs / max(res.seconds, 1e-9), 1),
            }))
        elif args.cmd == "forcemerge":
            from excelastic_ray.index.build import force_merge

            m = force_merge(args.index_dir, num_shards=args.shards)
            print(json.dumps({"num_shards": m["num_shards"],
                              "shard_bytes": m["shard_bytes"],
                              "status": m["status"]}))
        elif args.cmd == "bulk":
            import sys

            from excelastic_ray.bulk import bulk_apply, parse_ndjson

            body = (sys.stdin.read() if args.file == "-"
                    else open(args.file).read())
            items = bulk_apply(args.index_dir, parse_ndjson(body))
            errors = any(i["status"] == "error" for i in items)
            print(json.dumps({"items": items, "errors": errors}))
            if errors:
                return 1  # shell contract: failed items fail the command
        elif args.cmd == "doc-index":
            from excelastic_ray.index.build import index_doc

            docid = index_doc(
                args.index_dir,
                {"conv_id": args.conv_id, "turn_idx": args.turn_idx,
                 "role": args.role, "tool": args.tool, "ts": args.ts,
                 "text": args.text},
                overwrite=args.overwrite,
            )
            print(json.dumps({
                "docid": int(docid),
                "result": "updated" if args.overwrite else "created",
            }))
        elif args.cmd == "doc-delete":
            from excelastic_ray.index.build import delete_doc

            docid = delete_doc(args.index_dir, args.conv_id,
                               args.turn_idx)
            print(json.dumps({"docid": int(docid), "result": "deleted"}))
        elif args.cmd == "doc-update":
            from excelastic_ray.index.build import update_doc

            sets = dict(kv.split("=", 1) for kv in args.set)
            docid = update_doc(args.index_dir, args.conv_id,
                               args.turn_idx, sets)
            print(json.dumps({"docid": int(docid), "result": "updated"}))
        elif args.cmd == "append":
            from excelastic_ray.index.build import append_index

            res = append_index(args.src, args.index_dir)
            print(json.dumps({"n_docs": res.n_docs, "n_convs": res.n_convs,
                              "chunks_built": res.chunks_built,
                              "seconds": round(res.seconds, 2)}))
        elif args.cmd == "search":
            from excelastic_ray.query.engine import QueryEngine

            filters = {}
            for f in args.filter:
                key, _, val = f.partition("=")
                filters.setdefault(key, []).append(val)
            eng = QueryEngine(args.index_dir, use_actors=args.actors)
            if args.syn:
                table = {}
                for spec in args.syn:
                    term, _, alts = spec.partition("=")
                    table[term.lower()] = alts.split("|")
                t = eng.search_synonyms(args.query, table, args.k,
                                        filters=filters or None)
            elif args.span_first is not None:
                t = eng.search_span_first(args.query, args.span_first,
                                          args.k, filters=filters or None)
            elif args.span_near is not None:
                t = eng.search_span_near(args.query, slop=args.span_near,
                                         k=args.k,
                                         filters=filters or None)
            elif args.span_not:
                exc, sep, dist = args.span_not.rpartition(":")
                if not sep or not exc or not dist.isdigit():
                    raise SystemExit(
                        f"--span-not expects EXCLUDE:DIST, got "
                        f"{args.span_not!r}"
                    )
                t = eng.search_span_not(args.query, exc, dist=int(dist),
                                        k=args.k,
                                        filters=filters or None)
            elif args.phrase:
                t = eng.search_phrase(args.query, args.k, slop=args.slop)
            elif args.suggest:
                t = eng.suggest(args.query)
            elif args.terms_enum:
                t = eng.terms_enum(args.query, size=args.k,
                                   search_after=args.after)
            elif args.wildcard:
                t = eng.search_wildcard(args.query, args.k,
                                        filters=filters or None)
            elif args.regexp:
                t = eng.search_regexp(args.query, args.k,
                                      filters=filters or None)
            elif args.mlt:
                conv, _, turn = args.mlt.rpartition(":")
                t = eng.more_like_this(conv, int(turn), k=args.k,
                                       filters=filters or None)
            elif args.collapse and args.inner_hits is not None:
                t = eng.search_collapse_inner(
                    args.query, args.collapse, args.k,
                    inner_hits=args.inner_hits,
                    filters=filters or None)
            elif args.collapse:
                t = eng.search_collapse(args.query, args.collapse, args.k,
                                        filters=filters or None)
            elif args.must or args.must_not or args.msm is not None:
                t = eng.search_bool(
                    must=args.must or "", should=args.query,
                    must_not=args.must_not or "", k=args.k,
                    minimum_should_match=args.msm,
                    filters=filters or None,
                )
            elif args.fuzzy is not None:
                fz = args.fuzzy if args.fuzzy == "AUTO" else int(args.fuzzy)
                t = eng.search_fuzzy(args.query, args.k, fuzziness=fz,
                                     filters=filters or None)
            elif args.sort_ts:
                t = eng.search_sorted(args.query, args.k, order="desc",
                                      filters=filters or None)
            elif args.fields:
                t = eng.search_fields(args.query,
                                      args.fields.split(","), args.k,
                                      filters=filters or None,
                                      offset=args.offset)
            elif args.cross:
                t = eng.search_cross(args.query, args.cross.split(","),
                                     args.k, filters=filters or None)
            elif args.combined:
                t = eng.search_combined(args.query,
                                        args.combined.split(","),
                                        args.k, filters=filters or None)
            elif args.qstring:
                t = eng.search_string(args.query, args.k,
                                      filters=filters or None,
                                      highlight=args.highlight)
            elif args.qs:
                t = eng.search_qs(args.query, k=args.k,
                                  filters=filters or None,
                                  offset=args.offset)
            elif args.say:
                t = eng.search_say(args.query, args.k,
                                   filters=filters or None)
            elif args.script:
                t = eng.search_script_query(args.query, args.script,
                                            args.k,
                                            filters=filters or None)
            else:
                t = eng.search(args.query, args.k, filters=filters or None,
                               offset=args.offset, highlight=args.highlight,
                               min_score=args.min_score,
                               fragment_size=args.fragment_size)
            print(t.to_pandas().to_string(index=False))
            eng.close()
        elif args.cmd == "serve":
            import time

            from excelastic_ray.web import ImportServer

            srv = ImportServer(args.index_root, port=args.port,
                               index_lock=args.index_lock).start()
            print(f"listening on http://127.0.0.1:{srv.port}", flush=True)
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                srv.stop()
    finally:
        if owns_session:  # embedded callers (tests) keep their session
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
