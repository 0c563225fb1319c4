"""Command-line surface: gen-model, decode, sweep, heatmap, eval.

Exit codes: 0 success, 2 configuration/parameter error, 3 I/O error,
4 data error (malformed or mismatched inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attention import LOCAL_W, export_heatmap, format_sparsity_report, mask_stats
from .encoder import encode, subsampled_length
from .errors import DataError, EmptyInputError, ParameterError, SparseRnntError
from .frontend import atomic_output, read_text
from .metrics import breakdown_json, corpus_cer, edit_alignment, sweep_report
from .model_io import ModelConfig, load_model, random_model, save_model
from .pipeline import (
    DecodeOptions,
    SegmentationSpec,
    decode_file,
    decode_prepared,
    parse_policy,
    parse_segmentation,
    prepare_input,
    read_input,
)
from .transducer import SrsParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
_KIND = {EXIT_CONFIG: "config", EXIT_IO: "i/o", EXIT_DATA: "data"}


def _exit_code(exc: Exception) -> int:
    """The exit code of a failure: 2 for a bad parameter, 3 for a failed
    read or write (AudioFormatError and ModelFormatError are OSErrors), and
    4 for any other package error."""
    if isinstance(exc, ParameterError):
        return EXIT_CONFIG
    return EXIT_IO if isinstance(exc, OSError) else EXIT_DATA


def _load_config(path: str | None) -> ModelConfig:
    if path is None:
        return ModelConfig.desk_scale()
    text = read_text(path, ParameterError)
    base = ModelConfig.desk_scale().to_dict()
    try:
        for key, val in json.loads(text).items():
            if key in ("encoder", "vocab") and isinstance(val, dict):
                base[key].update(val)
            else:
                base[key] = val
        return ModelConfig.from_dict(base)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: bad model config ({exc})") from exc


def _decode_options(args, mask: str, segmentation: str) -> DecodeOptions:
    srs = SrsParams(args.t_sil)  # checked under --no-srs too
    return DecodeOptions(
        policy=parse_policy(mask, args.w),
        beam=args.beam,
        srs=srs if args.srs else None,
        segmentation=parse_segmentation(segmentation),
    )


def _failed_input_message(path: Path, exc: Exception) -> str:
    """`path: reason` for a failed input; readers' messages already lead with it."""
    # str() of an OSError ends in its filename; strerror is the reason alone
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)
    prefix = f"{path}: "
    return reason if reason.startswith(prefix) else prefix + reason


def _input_paths(inputs: list[str]) -> list[Path]:
    """The input paths; a file's stem is its utterance id, so none may repeat."""
    paths = {}
    for path in map(Path, inputs):
        if path.stem in paths:
            raise ParameterError(f"inputs {paths[path.stem]} and {path} share the "
                                 f"id {path.stem!r} (a file's name without its suffix)")
        paths[path.stem] = path
    return list(paths.values())


def _read_tsv(path) -> dict[str, str]:
    out = {}
    for line in read_text(path).splitlines():
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(f"{path}: line without tab separator: {line!r}")
        utt_id, text = line.split("\t", 1)
        if utt_id in out:
            raise DataError(f"{path}: repeated id {utt_id!r}")
        out[utt_id] = text
    return out


def cmd_gen_model(args) -> int:
    cfg = _load_config(args.config)
    model = random_model(cfg, args.seed)
    save_model(model, args.out)
    print(f"wrote model ({len(cfg.vocab)} tokens, "
          f"{cfg.encoder.num_layers} layers) to {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    # options and input ids are checked before the model or any input is read
    opts = _decode_options(args, args.mask, args.segmentation)
    paths = _input_paths(args.inputs)
    model = load_model(args.model)
    failures = []
    lines = []
    detail_lines = []
    stats_blocks = []
    # --stats: each encoded layer's (counts, global counts), as attended
    layers = []
    observe = (lambda z, *counts: layers.append(counts)) if args.stats else None
    for path in paths:
        layers.clear()
        try:
            res = decode_file(model, path, opts, observe)
        except (SparseRnntError, OSError) as exc:
            print(f"error: {_failed_input_message(path, exc)}", file=sys.stderr)
            failures.append(exc)
            continue
        utt_id = path.stem
        lines.append(f"{utt_id}\t{res.text}")
        if args.detail:
            detail_lines.append(json.dumps({
                "id": utt_id,
                "tokens": [
                    {"token": model.config.vocab.tokens[t.token_id],
                     "time": round(t.time, 6)}
                    for t in res.tokens
                ],
                "log_prob": res.log_prob,
            }, sort_keys=True))
        n = len(model.blocks)
        for si in range(0, len(layers), n):
            counts, global_counts = zip(*layers[si : si + n])
            report = format_sparsity_report(mask_stats(counts, global_counts))
            stats_blocks.append(f"# {utt_id} segment {si // n}\n{report}")
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with atomic_output(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.detail:
        with atomic_output(args.detail) as fh:
            fh.writelines(f"{line}\n" for line in detail_lines)
    if args.stats:
        with atomic_output(args.stats) as fh:
            fh.writelines(stats_blocks)
    if not failures:
        return EXIT_OK
    # an input that could not be read outranks one that could not be decoded
    return EXIT_IO if EXIT_IO in map(_exit_code, failures) else EXIT_DATA


def _sweep_text(model, path: Path, prepared, opts: DecodeOptions) -> str:
    """The transcript of one prepared input; a failure names the input, as
    decode's does."""
    try:
        return decode_prepared(model, prepared, opts).text
    except SparseRnntError as exc:
        raise type(exc)(_failed_input_message(path, exc)) from None


def cmd_sweep(args) -> int:
    # the whole grid and the input ids are checked before the model or any
    # input is read
    grid = {}  # (policy, segmentation kind, doi length) -> (as given, options)
    for mask in args.masks.split(","):
        for seg in args.segmentations.split(","):
            opts = _decode_options(args, mask, seg)
            key = (mask.strip().lower(), opts.segmentation.kind,
                   opts.segmentation.doi_length)
            point = f"{mask.strip()}/{seg.strip()}"
            if key in grid:
                raise ParameterError(f"grid points {grid[key][0]} and {point} "
                                     f"are the same")
            grid[key] = point, opts
    paths = _input_paths(args.inputs)
    model = load_model(args.model)
    refs = _read_tsv(args.refs)
    missing = [p.stem for p in paths if p.stem not in refs]
    if missing:
        raise DataError(f"no reference for: {', '.join(sorted(missing))}")
    # each input is read once and featurised once per segmentation; only
    # the encode and decode run for every mask
    inputs = [(path, refs[path.stem], read_input(path)) for path in paths]
    segmentations = []
    for _, opts in grid.values():
        if opts.segmentation not in segmentations:
            segmentations.append(opts.segmentation)
    results = {}
    for seg in segmentations:
        prepared = [(path, ref, prepare_input(model, x, seg)) for path, ref, x in inputs]
        for key, (_, opts) in grid.items():
            if opts.segmentation == seg:
                pairs = [(ref, _sweep_text(model, path, x, opts))
                         for path, ref, x in prepared]
                results[key] = corpus_cer(pairs)
    sweep_report(results, args.out)
    print(f"wrote {len(results)} sweep rows to {args.out}")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    policy = parse_policy(args.mask, args.w)
    model = load_model(args.model)
    # layer and head are checked before the input is read
    if not 0 <= args.layer < len(model.blocks):
        raise ParameterError(
            f"layer {args.layer} out of range [0, {len(model.blocks)})"
        )
    mh = model.blocks[args.layer].mh
    if not 0 <= args.head < mh.num_heads:
        raise ParameterError(f"head {args.head} out of range [0, {mh.num_heads})")
    # the input is featurised as decode featurises it, as one segment
    ((_, f, _),) = prepare_input(model, read_input(args.input), SegmentationSpec())
    if f is None or subsampled_length(f.num_frames, model.config.encoder) < 1:
        raise EmptyInputError(f"{args.input}: too short to encode one frame")
    # each layer's attention input, as attention saw it
    try:
        z = encode(f, model, policy, lambda z, *_: z)[1][args.layer]
    except SparseRnntError as exc:
        raise type(exc)(_failed_input_message(args.input, exc)) from None
    export_heatmap(z, mh.heads[args.head], args.out)
    print(f"wrote {len(z)}x{len(z)} heatmap to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    refs = _read_tsv(args.refs)
    if not refs:
        raise DataError(f"{args.refs}: no references")
    hyps = _read_tsv(args.hyps)
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise DataError(f"hypotheses missing for ids: {', '.join(missing)}")
    jsonl = []
    pairs = []
    for utt_id in sorted(refs):
        b = edit_alignment(refs[utt_id], hyps[utt_id])
        jsonl.append(breakdown_json(utt_id, b))
        pairs.append((refs[utt_id], hyps[utt_id]))
    summary = corpus_cer(pairs)
    if args.out:
        with atomic_output(args.out) as fh:
            fh.writelines(f"{line}\n" for line in jsonl)
    print(
        f"cer={summary.cer:.6f} del={summary.deletions} ins={summary.insertions} "
        f"sub={summary.substitutions} ref_len={summary.ref_len}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-rnnt",
        description="Sparse self-attention RNN-T inference and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="create a seeded random model file")
    p.add_argument("--config", help="JSON config overriding desk-scale defaults")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_model)

    defaults = DecodeOptions()  # bare `decode` is DecodeOptions()

    def add_decode_flags(p):
        # dense, the default policy, has no half-window to default from
        p.add_argument("--w", type=int, default=LOCAL_W, help="local half-window")
        p.add_argument("--beam", type=int, default=defaults.beam)
        p.add_argument("--srs", action=argparse.BooleanOptionalAction,
                       default=defaults.srs is not None)
        p.add_argument("--t-sil", type=int, default=SrsParams().t_sil, dest="t_sil")

    p = sub.add_parser("decode", help="transcribe wav or feature files")
    p.add_argument("--model", required=True)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--mask", default="dense",
                   help="dense | local | local+sgm1|sgm2|sgm3")
    add_decode_flags(p)
    p.add_argument("--segmentation", default="none",
                   help="none | doi:<seconds> | epd")
    p.add_argument("--out", help="transcript file (default stdout)")
    p.add_argument("--detail", help="JSON-lines per-token detail file")
    p.add_argument("--stats", help="sparsity report file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="mask x segmentation grid with CER report",
                       allow_abbrev=False)  # so --mask is not read as --masks
    p.add_argument("--model", required=True)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--refs", required=True, help="TSV id<TAB>reference")
    p.add_argument("--masks", default="dense,local,local+sgm3")
    p.add_argument("--segmentations", default="doi:20",
                   help="comma list of none|epd|doi:<seconds>")
    add_decode_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("heatmap", help="export a dense attention heatmap CSV")
    p.add_argument("--model", required=True)
    p.add_argument("input")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.add_argument("--mask", default="dense")
    p.add_argument("--w", type=int, default=LOCAL_W)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--out", help="per-utterance JSON-lines breakdown")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SparseRnntError, OSError) as exc:
        code = _exit_code(exc)
        print(f"{_KIND[code]} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
