"""Command-line interface: ``python -m repro {list,run,sweep,bench,predict,serve}``.

* ``list``    — show every registered experiment and its cached artifacts.
* ``run``     — execute one or more experiments (or ``--all``) through the
  shared caching runner, optionally fanned out over a process pool with
  ``--jobs N``; unchanged configurations are cache hits, so an interrupted
  sweep resumes where it stopped.  Trained models land next to the artifacts
  as servable bundles.
* ``sweep``   — run every experiment across one or more scales with a parallel
  worker pool by default (``--jobs auto``); per-experiment failures are
  reported at the end instead of aborting the sweep.
* ``bench``   — regenerate the perf trajectory (``BENCH_autograd.json``):
  experiment wall times through the same cached runner (cache bypassed) plus
  the micro-benchmarks of :data:`repro.bench.MICROS` (``fused``,
  ``inference``, ``serving``, ``pool``, ``trace``, ``generate``, ``train``;
  pick some with ``--micros a,b``), with repeatable ``--gate NAME=RATIO``
  CI floors on their speedups.
* ``train``   — train one registered classifier directly (outside the
  experiment registry), optionally sharding every batch across
  ``--world-size`` gradient shards computed by ``--train-jobs`` worker
  processes (worker count never changes the bytes; shard count does),
  with step-granular checkpoints (``--checkpoint-every-steps``) that make
  the run preemptible: ``kill -9`` it, then ``--resume-from
  DIR/last_step.npz`` replays the epoch's remaining batches
  bit-identically.
* ``predict`` — batched, no-grad inference on a saved model bundle (from
  a ``.npy`` file or seeded random inputs), JSON out.
* ``generate`` — autoregressive decoding on a saved *generation* bundle
  (a seq2seq Transformer saved with its vocabularies, e.g. by the table2
  experiment): token ids or whitespace-tokenized ``--text`` in, generated
  tokens with per-step log-probabilities out, through the KV-cached
  continuous-batching engine (``--strategy``, ``--temperature``,
  ``--top-k``, ``--seed``).
* ``serve``   — expose one or more bundles over HTTP through the v1
  multi-model API (``GET /v1/models``, ``POST /v1/models/<name>/predict``,
  ``POST /v1/models/<name>/generate``, ``GET /v1/stats``), with
  cross-request dynamic batching by default (``--engine batched``,
  tuned by ``--max-batch`` / ``--max-wait-ms`` / ``--queue-size``),
  trace-and-replay compilation per model,
  per-model admission control (``--max-inflight``), the ``/v1/admin``
  control plane (disable with ``--no-admin``), and graceful SIGINT/SIGTERM
  draining.
* ``promote`` — swap a trained bundle (a path, or a sweep artifact's best
  checkpoint via its ``meta.bundles``) into a *running* server through the
  admin API: an immediate hot reload, or a staged canary/shadow
  (``--canary`` / ``--shadow``) finalized later with ``--finalize``.
* ``reload``  — hot-reload a mounted model on a running server (re-load its
  current bundle, or ``--bundle`` to swap paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import get_scale
from .experiments.registry import all_specs, experiment_names, get_spec
from .experiments.reporting import SweepReporter, format_table
from .experiments.runner import default_cache_dir, run_many
from .serve.batching import DEFAULT_MAX_WAIT_MS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's tables and figures through the "
                    "declarative experiment registry.")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_cache_dir(subparser):
        subparser.add_argument("--cache-dir", default=None,
                               help="artifact cache directory (default: "
                                    "$REPRO_ARTIFACTS or ./artifacts)")

    def add_jobs(subparser, default=None):
        subparser.add_argument("--jobs", "-j", default=default, metavar="N",
                               help="worker processes for the sweep: an integer, "
                                    "or 'auto' for one per CPU (default: "
                                    "$REPRO_JOBS or 1)")

    list_parser = commands.add_parser(
        "list", help="list registered experiments and cached artifacts")
    add_cache_dir(list_parser)
    list_parser.set_defaults(handler=_command_list)

    run_parser = commands.add_parser(
        "run", help="run experiments through the caching runner")
    add_cache_dir(run_parser)
    run_parser.add_argument("experiments", nargs="*",
                            help="experiment names, or 'all'")
    run_parser.add_argument("--all", dest="run_all", action="store_true",
                            help="run every registered experiment")
    run_parser.add_argument("--scale", default="bench",
                            help="scale preset: smoke, bench or paper (default: bench)")
    add_jobs(run_parser)
    run_parser.add_argument("--force", action="store_true",
                            help="recompute and overwrite cached artifacts")
    run_parser.add_argument("--quiet", action="store_true",
                            help="suppress per-experiment reports")
    run_parser.set_defaults(handler=_command_run)

    sweep_parser = commands.add_parser(
        "sweep", help="run every experiment across scales on a worker pool")
    add_cache_dir(sweep_parser)
    sweep_parser.add_argument("experiments", nargs="*",
                              help="experiment names (default: all registered)")
    sweep_parser.add_argument("--scales", nargs="+", default=["smoke"],
                              metavar="SCALE",
                              help="scale presets to sweep (default: smoke)")
    add_jobs(sweep_parser, default="auto")
    sweep_parser.add_argument("--force", action="store_true",
                              help="recompute and overwrite cached artifacts")
    sweep_parser.set_defaults(handler=_command_sweep)

    bench_parser = commands.add_parser(
        "bench", help="regenerate the perf trajectory (cache bypassed)")
    add_cache_dir(bench_parser)
    bench_parser.add_argument("experiments", nargs="*",
                              help="experiment names (default: all)")
    bench_parser.add_argument("--scale", default="smoke",
                              help="scale preset to time at (default: smoke; "
                                   "timing is always sequential so the "
                                   "trajectory is contention-free)")
    bench_parser.add_argument("--output",
                              default="BENCH_autograd.json",
                              help="summary JSON path (default: BENCH_autograd.json)")
    bench_parser.add_argument("--rounds", type=int, default=30,
                              help="base rounds; each micro-benchmark scales "
                                   "it by its own rule (default: 30)")
    bench_parser.add_argument("--micros", default=None, metavar="A,B",
                              help="comma-separated micro-benchmarks to run "
                                   "(default: all; '' runs none; an unknown "
                                   "name lists the valid ones)")
    bench_parser.add_argument("--gate", action="append", default=[],
                              metavar="NAME=RATIO",
                              help="fail when any speedup of micro NAME falls "
                                   "below RATIO (repeatable; CI perf gate)")
    bench_parser.set_defaults(handler=_command_bench)

    train_parser = commands.add_parser(
        "train", help="train one classifier with optional data-parallel "
                      "workers and step-granular checkpoints")
    train_parser.add_argument("--model", default="simple_cnn",
                              help="registered model name (default: simple_cnn)")
    train_parser.add_argument("--model-arg", action="append", default=[],
                              metavar="KEY=VALUE", dest="model_args",
                              help="model constructor override, JSON-decoded "
                                   "(repeatable), e.g. --model-arg base_width=8")
    train_parser.add_argument("--scale", default="smoke",
                              help="scale preset for dataset/optimizer defaults "
                                   "(default: smoke)")
    train_parser.add_argument("--epochs", type=int, default=None,
                              help="training epochs (default: the scale's)")
    train_parser.add_argument("--batch-size", type=int, default=None,
                              help="global batch size (default: the scale's)")
    train_parser.add_argument("--seed", type=int, default=None,
                              help="seed for data, shuffling and model init "
                                   "(default: the scale's)")
    train_parser.add_argument("--world-size", type=int, default=1,
                              help="gradient shards per batch; the shard "
                                   "count fixes the arithmetic, so results "
                                   "are byte-identical across any "
                                   "--train-jobs at the same --world-size "
                                   "(default: 1 = plain sequential trainer)")
    train_parser.add_argument("--train-jobs", type=int, default=None,
                              metavar="N",
                              help="gradient worker processes, capped at "
                                   "--world-size; never changes the bytes "
                                   "(default: one per CPU)")
    train_parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                              help="write epoch checkpoints (and step "
                                   "checkpoints with "
                                   "--checkpoint-every-steps) under DIR")
    train_parser.add_argument("--checkpoint-every-steps", type=int, default=0,
                              metavar="K",
                              help="also checkpoint every K optimizer steps "
                                   "(step_NNNNNN.npz + rolling "
                                   "last_step.npz); resume replays the "
                                   "epoch's remaining batches bit-identically")
    train_parser.add_argument("--resume-from", default=None, metavar="CKPT",
                              help="resume from a checkpoint .npz (e.g. "
                                   "DIR/last_step.npz after a kill -9)")
    train_parser.add_argument("--output", default=None, metavar="NPZ",
                              help="final checkpoint path (default: "
                                   "CHECKPOINT_DIR/final.npz when "
                                   "--checkpoint-dir is given)")
    train_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-epoch progress lines")
    train_parser.set_defaults(handler=_command_train)

    predict_parser = commands.add_parser(
        "predict", help="batched no-grad inference on a saved model bundle")
    predict_parser.add_argument("bundle", help="path to a bundle .npz "
                                               "(e.g. best.npz from a training run, or an "
                                               "entry of an artifact's meta.bundles)")
    source = predict_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="NPY",
                        help=".npy file holding one sample or a batch")
    source.add_argument("--random", type=int, metavar="N",
                        help="predict on N seeded random inputs (requires the "
                             "bundle to record its input_shape)")
    predict_parser.add_argument("--seed", type=int, default=0,
                                help="seed for --random inputs (default: 0)")
    predict_parser.add_argument("--top-k", type=int, default=1,
                                help="classes per prediction record (default: 1)")
    predict_parser.add_argument("--max-batch", type=int, default=64,
                                help="micro-batch size (default: 64)")
    predict_parser.add_argument("--no-normalize", dest="normalize",
                                action="store_false",
                                help="skip the bundle's input normalization "
                                     "(inputs are already preprocessed)")
    predict_parser.add_argument("--output", metavar="JSON", default=None,
                                help="also write the predictions to this file")
    predict_parser.set_defaults(handler=_command_predict)

    generate_parser = commands.add_parser(
        "generate", help="autoregressive decoding on a saved generation bundle")
    generate_parser.add_argument("bundle",
                                 help="path to a generation bundle .npz (a "
                                      "seq2seq model saved with vocabularies, "
                                      "e.g. by the table2 experiment)")
    generate_source = generate_parser.add_mutually_exclusive_group(required=True)
    generate_source.add_argument("--input", metavar="JSON",
                                 help="JSON file (or inline JSON) holding one "
                                      "source-token-id sequence or a list of "
                                      "sequences")
    generate_source.add_argument("--text", action="append", default=None,
                                 metavar="SENTENCE",
                                 help="whitespace-tokenized source sentence, "
                                      "encoded through the bundle's source "
                                      "vocabulary (repeatable)")
    generate_parser.add_argument("--max-new-tokens", type=int, default=None,
                                 help="cap on generated tokens per sequence "
                                      "(default: the bundle's position budget)")
    generate_parser.add_argument("--strategy", choices=["greedy", "sample"],
                                 default=None,
                                 help="decoding strategy (default: greedy, or "
                                      "'sample' when --temperature/--top-k "
                                      "is given)")
    generate_parser.add_argument("--temperature", type=float, default=None,
                                 help="sampling temperature (> 0; implies "
                                      "--strategy sample)")
    generate_parser.add_argument("--top-k", type=int, default=None,
                                 help="sample from the k most likely tokens "
                                      "(implies --strategy sample)")
    generate_parser.add_argument("--seed", type=int, default=None,
                                 help="pin the sampling seed for reproducible "
                                      "output (default: derived per request)")
    generate_parser.add_argument("--max-batch", type=int, default=8,
                                 help="decode slots batched per step "
                                      "(default: 8)")
    generate_parser.add_argument("--output", metavar="JSON", default=None,
                                 help="also write the generations to this file")
    generate_parser.set_defaults(handler=_command_generate)

    serve_parser = commands.add_parser(
        "serve", help="serve one or more model bundles over HTTP")
    serve_parser.add_argument("bundle", nargs="?", default=None,
                              help="path to a bundle .npz, mounted first as "
                                   "model 'default' (the same as --model "
                                   "default=BUNDLE)")
    serve_parser.add_argument("--model", action="append", default=[],
                              metavar="NAME=BUNDLE", dest="models",
                              help="mount BUNDLE under /v1/models/NAME "
                                   "(repeatable; first model named becomes "
                                   "the default unless --default is given)")
    serve_parser.add_argument("--default", dest="default_model", default=None,
                              metavar="NAME",
                              help="default model listed by /v1/models and "
                                   "targeted by promote/reload without "
                                   "--model (default: first mounted)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8000,
                              help="bind port, 0 for ephemeral (default: 8000)")
    serve_parser.add_argument("--engine", choices=["batched", "direct", "pool"],
                              default="batched",
                              help="serving engine: 'batched' fuses concurrent "
                                   "requests into one forward, 'direct' runs "
                                   "each request inline, 'pool' shards fused "
                                   "batches across --workers warm processes "
                                   "(default: batched)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="pool engine: worker processes per "
                                   "pool-served model (default: 2)")
    serve_parser.add_argument("--model-engine", action="append", default=[],
                              metavar="NAME=ENGINE", dest="model_engines",
                              help="override the engine for one mounted model "
                                   "(repeatable), e.g. --model-engine hot=pool")
    serve_parser.add_argument("--model-workers", action="append", default=[],
                              metavar="NAME=N", dest="model_workers",
                              help="override the pool worker count for one "
                                   "mounted model (repeatable)")
    serve_parser.add_argument("--max-batch", type=int, default=64,
                              help="rows per fused forward (default: 64)")
    serve_parser.add_argument("--max-wait-ms", type=float,
                              default=DEFAULT_MAX_WAIT_MS,
                              help="batched and pool engines: how long an "
                                   "open batch waits for more requests, in "
                                   "milliseconds (default: "
                                   f"{DEFAULT_MAX_WAIT_MS})")
    serve_parser.add_argument("--queue-size", type=int, default=256,
                              help="batched engine: queued requests beyond "
                                   "which clients get 429 (default: 256)")
    serve_parser.add_argument("--request-timeout", type=float, default=30.0,
                              help="batched engine: per-request queue-wait "
                                   "bound in seconds before a 504 (default: "
                                   "30; direct forwards run inline and "
                                   "cannot time out)")
    serve_parser.add_argument("--max-inflight", type=int, default=None,
                              metavar="N",
                              help="per-model admission cap: shed requests "
                                   "with 429 once a model has N in flight, "
                                   "so one saturated model cannot take the "
                                   "process down (default: unlimited)")
    serve_parser.add_argument("--no-admin", action="store_true",
                              help="disable the /v1/admin control-plane "
                                   "routes (reload/canary/promote)")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-request access logs")
    serve_parser.set_defaults(handler=_command_serve)

    promote_parser = commands.add_parser(
        "promote", help="swap a bundle into a running server via the admin API")
    promote_parser.add_argument("target", nargs="?", default=None,
                                help="bundle .npz path, or a sweep-artifact "
                                     ".json whose meta.bundles names the "
                                     "trained bundles (omit with --finalize/"
                                     "--clear)")
    promote_parser.add_argument("--server", default="http://127.0.0.1:8000",
                                help="base URL of the running server "
                                     "(default: http://127.0.0.1:8000)")
    promote_parser.add_argument("--model", default=None, metavar="NAME",
                                help="mounted model to operate on (default: "
                                     "the server's default model)")
    promote_parser.add_argument("--bundle-index", type=int, default=0,
                                metavar="I",
                                help="which meta.bundles entry to use when "
                                     "TARGET is an artifact (default: 0; "
                                     "negative indices count from the end)")
    promote_parser.add_argument("--canary", type=float, default=None,
                                metavar="PERCENT",
                                help="stage TARGET as a canary answering "
                                     "PERCENT%% of traffic instead of "
                                     "swapping immediately")
    promote_parser.add_argument("--shadow", action="store_true",
                                help="stage TARGET as a shadow: mirror "
                                     "traffic to it and count agreement, "
                                     "never answer from it")
    promote_parser.add_argument("--finalize", action="store_true",
                                help="promote the already-staged canary to "
                                     "primary (no TARGET)")
    promote_parser.add_argument("--clear", action="store_true",
                                help="retire the staged canary without "
                                     "touching the primary (no TARGET)")
    promote_parser.set_defaults(handler=_command_promote)

    reload_parser = commands.add_parser(
        "reload", help="hot-reload a mounted model on a running server")
    reload_parser.add_argument("--server", default="http://127.0.0.1:8000",
                               help="base URL of the running server "
                                    "(default: http://127.0.0.1:8000)")
    reload_parser.add_argument("--model", default=None, metavar="NAME",
                               help="mounted model to reload (default: the "
                                    "server's default model)")
    reload_parser.add_argument("--bundle", default=None, metavar="PATH",
                               help="swap to this bundle (default: re-load "
                                    "the currently mounted bundle path)")
    reload_parser.set_defaults(handler=_command_reload)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cache_dir(args) -> Path:
    return Path(args.cache_dir) if args.cache_dir else default_cache_dir()


def _resolve_names(requested: list[str], run_all: bool = False) -> list[str]:
    if run_all or requested == ["all"] or requested == []:
        return experiment_names()
    for name in requested:
        get_spec(name)  # raises with the available names on a typo
    return requested


def _command_list(args) -> int:
    cache_dir = _cache_dir(args)
    rows = []
    for spec in all_specs():
        cached = sorted(cache_dir.glob(f"{spec.name}-*.json"))
        rows.append({
            "name": spec.name,
            "artifact": spec.artifact,
            "scaled": "yes" if spec.uses_scale else "no",
            "cached": len(cached),
            "title": spec.title,
        })
    print(format_table(rows, columns=["name", "artifact", "scaled", "cached", "title"]))
    print(f"\n{len(rows)} experiments registered; artifact cache: {cache_dir}")
    return 0


def _print_reports(spec, result: dict) -> None:
    for key in spec.report_keys:
        section = result.get(key)
        if isinstance(section, str):
            print(section)
        elif isinstance(section, dict) and isinstance(section.get("report"), str):
            print(f"[{key}]")
            print(section["report"])


def _command_run(args) -> int:
    if not args.experiments and not args.run_all:
        print("error: name experiments to run, or pass --all for the full sweep",
              file=sys.stderr)
        return 2
    names = _resolve_names(args.experiments, run_all=args.run_all)
    scale = get_scale(args.scale)
    cache_dir = _cache_dir(args)
    reporter = SweepReporter(total=len(names))
    outcomes = run_many(names, scale=scale, cache_dir=cache_dir, force=args.force,
                        jobs=args.jobs,
                        progress=reporter.on_outcome, on_event=reporter.on_event)
    if not args.quiet:
        for outcome in outcomes:
            if outcome.ok:
                _print_reports(get_spec(outcome.name), outcome.result)
                for bundle in outcome.artifact.get("meta", {}).get("bundles", []):
                    # A cached artifact may list bundles that were cleaned up
                    # since the run; only advertise files that still exist.
                    if (cache_dir / bundle).exists():
                        print(f"bundle: {cache_dir / bundle}")
    reporter.print_summary()
    return 1 if reporter.failed else 0


def _command_sweep(args) -> int:
    names = _resolve_names(args.experiments)
    cache_dir = _cache_dir(args)
    scales = [get_scale(name) for name in args.scales]  # validate before starting
    failures = 0
    for scale in scales:
        print(f"--- sweep @ {scale.name} (jobs={args.jobs}) ---")
        reporter = SweepReporter(total=len(names))
        run_many(names, scale=scale, cache_dir=cache_dir, force=args.force,
                 jobs=args.jobs, progress=reporter.on_outcome,
                 on_event=reporter.on_event)
        reporter.print_summary()
        failures += len(reporter.failed)
    return 1 if failures else 0


def _command_bench(args) -> int:
    import time as _time

    from . import bench as bench_module

    try:
        micros, floors = bench_module.select(args.micros, args.gate)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    names = _resolve_names(args.experiments)
    scale = get_scale(args.scale)
    cache_dir = _cache_dir(args)
    started = _time.time()

    try:
        figure_repros = bench_module.benchmark_experiments(
            names, scale=scale, cache_dir=cache_dir,
            progress=lambda outcome: print(
                f"{outcome.name}: {outcome.elapsed_seconds:.2f}s"))
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    results = {name: bench_module.MICROS[name].run(args.rounds)
               for name in micros}
    summary = bench_module.build_summary(figure_repros, results,
                                         scale=scale.name, started=started)
    rows = [{"experiment": name, "scale": scale.name,
             "seconds": stats["mean_seconds"]}
            for name, stats in figure_repros.items()]
    print()
    print(format_table(rows, columns=["experiment", "scale", "seconds"]))
    for name in micros:
        for label, ratio, best in bench_module.MICROS[name].ratios(summary):
            shown = "missing" if ratio is None else \
                f"{ratio:>7.2f}x (best-of-rounds {best:.2f}x)"
            print(f"  {name + ': ' + label:<50s} {shown}")

    if args.output:
        bench_module.write_summary(summary, args.output)
        print(f"wrote {args.output}")

    violations = bench_module.check_gates(summary, floors)
    for violation in violations:
        print(f"PERF REGRESSION: {violation}", file=sys.stderr)
    if violations:
        return 1
    for name, floor in floors.items():
        print(f"{name} speedups all >= {floor:.2f}x")
    return 0


def _parse_model_args(pairs: list[str]) -> dict:
    kwargs = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"--model-arg needs KEY=VALUE, got {pair!r}")
        try:
            kwargs[key] = json.loads(raw)
        except json.JSONDecodeError:
            kwargs[key] = raw  # bare strings may be passed unquoted
    return kwargs


def _command_train(args) -> int:
    import hashlib

    from . import models as _models  # noqa: F401 — populates the registry
    from .data import DataLoader, standard_cifar_augmentation
    from .experiments.common import (build_image_dataset, classifier_bundle_info,
                                     make_trainer)
    from .models.registry import build_model

    scale = get_scale(args.scale)
    seed = args.seed if args.seed is not None else scale.seed
    epochs = args.epochs if args.epochs is not None else scale.epochs
    batch_size = args.batch_size if args.batch_size is not None else scale.batch_size
    dataset = build_image_dataset(scale, seed=seed)

    # Scale-derived constructor defaults so `repro train` works bare; every
    # entry is overridable (and extendable) through repeated --model-arg.
    model_kwargs = {"num_classes": dataset.num_classes}
    if args.model == "simple_cnn":
        model_kwargs.update(in_channels=dataset.channels,
                            image_size=dataset.image_size, seed=seed)
    model_kwargs.update(_parse_model_args(args.model_args))
    model = build_model(args.model, **model_kwargs)

    loader = DataLoader(dataset.train_images, dataset.train_labels,
                        batch_size=batch_size, shuffle=True,
                        augmentation=standard_cifar_augmentation(scale.augmentation_padding),
                        seed=seed)
    trainer = make_trainer(model, scale, epochs=epochs,
                           world_size=args.world_size,
                           train_jobs=args.train_jobs, train_seed=seed)
    trainer.bundle_info = classifier_bundle_info(dataset)

    output = Path(args.output) if args.output else \
        (Path(args.checkpoint_dir) / "final.npz" if args.checkpoint_dir else None)
    try:
        trainer.fit(loader, epochs,
                    eval_inputs=dataset.test_images,
                    eval_targets=dataset.test_labels,
                    verbose=not args.quiet,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every_steps=args.checkpoint_every_steps,
                    resume_from=args.resume_from)
        if output is not None:
            output.parent.mkdir(parents=True, exist_ok=True)
            trainer.save_checkpoint(output, loader=loader)
        summary = {
            "model": args.model,
            "scale": scale.name,
            "seed": seed,
            "epochs": len(trainer.history),
            "global_step": trainer.global_step,
            "world_size": args.world_size,
            "diverged": trainer.diverged,
            "final": trainer.history.records[-1] if len(trainer.history) else None,
        }
        describe = getattr(trainer, "describe", None)
        if describe is not None:
            summary["distributed"] = describe()
        if output is not None:
            summary["checkpoint"] = str(output)
            summary["checkpoint_sha256"] = hashlib.sha256(
                output.read_bytes()).hexdigest()
    finally:
        close = getattr(trainer, "close", None)
        if close is not None:
            close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _command_predict(args) -> int:
    import numpy as np

    from .serve import load

    predictor = load(args.bundle, max_batch=args.max_batch, warm=False)
    if args.input is not None:
        inputs = np.load(args.input)
    else:
        if predictor.input_shape is None:
            print("error: --random needs the bundle to record input_shape; "
                  "pass --input instead", file=sys.stderr)
            return 2
        if args.random < 1:
            print("error: --random needs at least one sample", file=sys.stderr)
            return 2
        inputs = np.random.default_rng(args.seed).standard_normal(
            (args.random, *predictor.input_shape)).astype(np.float32)

    predictions = predictor.predict_topk(inputs, k=args.top_k,
                                         normalize=args.normalize)
    document = {
        "bundle": str(args.bundle),
        "model": predictor.describe()["model"],
        "count": len(predictions),
        "predictions": predictions,
    }
    rendered = json.dumps(document, indent=2)
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    return 0


def _command_generate(args) -> int:
    from .serve import load
    from .serve.generate import GenerationPredictor

    predictor = load(args.bundle, max_batch=args.max_batch, warm=False)
    if not isinstance(predictor, GenerationPredictor):
        print("error: this bundle is a classifier, not a generation model; "
              "use 'repro predict' instead", file=sys.stderr)
        return 2
    with predictor:
        if args.text is not None:
            inputs: object = list(args.text)
        else:
            source = Path(args.input)
            raw = source.read_text() if source.exists() else args.input
            try:
                inputs = json.loads(raw)
            except json.JSONDecodeError as error:
                print(f"error: --input is neither a readable JSON file nor "
                      f"inline JSON ({error})", file=sys.stderr)
                return 2
        outputs = predictor.generate(
            inputs, max_new_tokens=args.max_new_tokens, strategy=args.strategy,
            temperature=args.temperature, top_k=args.top_k, seed=args.seed)
        document = {
            "bundle": str(args.bundle),
            "model": predictor.describe()["model"],
            "count": len(outputs),
            "outputs": outputs,
        }
    rendered = json.dumps(document, indent=2)
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    return 0


def _parse_model_specs(specs: list[str], flag: str = "--model",
                       value_name: str = "BUNDLE") -> dict[str, str]:
    """``NAME=VALUE`` pairs → ordered mapping, with helpful errors."""
    models: dict[str, str] = {}
    for spec in specs:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            raise ValueError(f"{flag} expects NAME={value_name}, got {spec!r}")
        if name in models:
            raise ValueError(f"{flag} name {name!r} given twice")
        models[name] = path
    return models


def _http_json(method: str, url: str, payload: dict | None = None) -> dict:
    """One JSON request against the serving/admin API, with readable errors."""
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=120.0) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        try:
            detail = json.loads(error.read().decode("utf-8")).get("error", "")
        except Exception:  # noqa: BLE001 — the status alone is still useful
            detail = ""
        suffix = f": {detail}" if detail else ""
        raise ValueError(f"{method} {url} failed with "
                         f"HTTP {error.code}{suffix}") from error
    except urllib.error.URLError as error:
        raise ValueError(f"cannot reach the server at {url} "
                         f"({error.reason}); is it running?") from error


def _resolve_bundle_target(target: str, index: int = 0) -> str:
    """A bundle path, or a sweep artifact's ``meta.bundles[index]``, absolute.

    Artifacts record bundle paths relative to the cache directory they live
    in, so ``artifact.parent / entry`` is the on-disk bundle; the result is
    absolute because the running server may have a different working
    directory than this CLI invocation.
    """
    path = Path(target)
    if path.suffix == ".json":
        artifact = json.loads(path.read_text())
        bundles = artifact.get("meta", {}).get("bundles") or []
        if not bundles:
            raise ValueError(f"artifact {target} records no bundles in "
                             f"meta.bundles — was its experiment trained with "
                             f"a servable model?")
        if not -len(bundles) <= index < len(bundles):
            raise ValueError(f"--bundle-index {index} is out of range; "
                             f"artifact records {len(bundles)} bundle(s): "
                             f"{bundles}")
        return str((path.parent / bundles[index]).resolve())
    return str(path.resolve())


def _target_model(server: str, model: str | None) -> str:
    """``--model`` when given, else the server's default model name."""
    if model is not None:
        return model
    payload = _http_json("GET", f"{server}/v1/models")
    name = payload.get("default")
    if not name:
        raise ValueError(f"server at {server} reports no mounted models; "
                         f"pass --model explicitly")
    return name


def _command_promote(args) -> int:
    server = args.server.rstrip("/")
    if args.finalize or args.clear:
        if args.finalize and args.clear:
            raise ValueError("--finalize and --clear are mutually exclusive")
        if args.target is not None:
            raise ValueError("--finalize/--clear operate on the already-"
                             "staged canary; drop the TARGET argument")
        model = _target_model(server, args.model)
        if args.finalize:
            result = _http_json(
                "POST", f"{server}/v1/admin/models/{model}/promote")
        else:
            result = _http_json(
                "DELETE", f"{server}/v1/admin/models/{model}/canary")
    else:
        if args.target is None:
            raise ValueError("name a bundle or sweep artifact to promote "
                             "(or pass --finalize / --clear)")
        bundle = _resolve_bundle_target(args.target, args.bundle_index)
        model = _target_model(server, args.model)
        if args.canary is not None or args.shadow:
            payload: dict = {"bundle": bundle, "shadow": args.shadow}
            if args.canary is not None:
                payload["percent"] = args.canary
            result = _http_json(
                "POST", f"{server}/v1/admin/models/{model}/canary", payload)
        else:
            result = _http_json(
                "POST", f"{server}/v1/admin/models/{model}/reload",
                {"bundle": bundle})
    print(json.dumps(result, indent=2))
    return 0


def _command_reload(args) -> int:
    server = args.server.rstrip("/")
    model = _target_model(server, args.model)
    payload = {"bundle": args.bundle} if args.bundle else {}
    result = _http_json(
        "POST", f"{server}/v1/admin/models/{model}/reload", payload)
    print(json.dumps(result, indent=2))
    return 0


def _command_serve(args) -> int:
    from .serve.http import serve

    positional = [f"default={args.bundle}"] if args.bundle is not None else []
    models: dict[str, object] = _parse_model_specs(positional + args.models)
    if not models:
        print("error: name a bundle to serve, or mount one with "
              "--model NAME=BUNDLE", file=sys.stderr)
        return 2
    # Per-model overrides turn a model's path into a spec dict
    # ({"path": ..., "engine": ..., "workers": ...}).
    overrides = {
        "engine": _parse_model_specs(args.model_engines, "--model-engine",
                                     "ENGINE"),
        "workers": {name: int(count) for name, count in _parse_model_specs(
            args.model_workers, "--model-workers", "N").items()},
    }
    for key, values in overrides.items():
        for name, value in values.items():
            if name not in models:
                raise ValueError(f"engine/worker override names unmounted "
                                 f"model {name!r}; mount it with --model first")
            if not isinstance(models[name], dict):
                models[name] = {"path": models[name]}
            models[name][key] = value
    serve(models, host=args.host, port=args.port,
          max_batch=args.max_batch, quiet=args.quiet,
          engine=args.engine, max_wait_ms=args.max_wait_ms,
          queue_size=args.queue_size, request_timeout=args.request_timeout,
          default_model=args.default_model,
          workers=args.workers, max_inflight=args.max_inflight,
          admin=not args.no_admin)
    return 0
