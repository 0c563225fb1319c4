"""Command-line surface: gen-model, decode, sweep, heatmap, eval.

Exit codes: 0 success, 2 configuration/parameter error, 3 I/O error,
4 data error (malformed or mismatched inputs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .attention import (attended_counts, export_heatmap, format_sparsity_report,
                        mask_stats)
from .errors import (
    AudioFormatError,
    DataError,
    ModelFormatError,
    ParameterError,
    SparseRnntError,
)
from .frontend import read_text
from .metrics import breakdown_json, corpus_cer, edit_alignment, sweep_report
from .model_io import Model, ModelConfig, Vocabulary, load_model, random_model, save_model
from .pipeline import (
    DecodeOptions,
    decode_file,
    decode_prepared,
    encode_file,
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


def _atomic_write(path, text: str) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    return DecodeOptions(
        policy=parse_policy(mask, args.w),
        beam=args.beam,
        srs=SrsParams(t_sil=args.t_sil, enabled=args.srs),
        segmentation=parse_segmentation(segmentation, args.overlap),
    )


def _sparsity_report(model, attn_in, policy) -> str:
    """Recount one segment's attended sets layer by layer and format their stats."""
    counts = [attended_counts(z, block.mh, policy)
              for z, block in zip(attn_in, model.blocks)]
    return format_sparsity_report(mask_stats([c for c, _ in counts],
                                             [g for _, g in counts]))


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
    for path in paths:
        try:
            res = decode_file(model, path, opts)
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
        if args.stats:
            for si, attn_in in enumerate(res.attn_in):
                stats_blocks.append(f"# {utt_id} segment {si}\n"
                                    + _sparsity_report(model, attn_in, opts.policy))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.detail:
        _atomic_write(args.detail, "\n".join(detail_lines)
                      + ("\n" if detail_lines else ""))
    if args.stats:
        _atomic_write(args.stats, "".join(stats_blocks))
    if not failures:
        return EXIT_OK
    io_like = (AudioFormatError, ModelFormatError, OSError)
    return EXIT_IO if any(isinstance(e, io_like) for e in failures) else EXIT_DATA


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
    inputs = [(refs[path.stem], read_input(path)) for path in paths]
    segmentations = []
    for _, opts in grid.values():
        if opts.segmentation not in segmentations:
            segmentations.append(opts.segmentation)
    results = {}
    for seg in segmentations:
        prepared = [(ref, prepare_input(model, x, seg)) for ref, x in inputs]
        for key, (_, opts) in grid.items():
            if opts.segmentation == seg:
                pairs = [(ref, decode_prepared(model, x, opts).text)
                         for ref, x in prepared]
                results[key] = corpus_cer(pairs)
    sweep_report(results, args.out)
    print(f"wrote {len(results)} sweep rows to {args.out}")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    opts = DecodeOptions(policy=parse_policy(args.mask, args.w))
    model = load_model(args.model)
    # layer and head are checked before the input is read
    if not 0 <= args.layer < len(model.blocks):
        raise ParameterError(
            f"layer {args.layer} out of range [0, {len(model.blocks)})"
        )
    mh = model.blocks[args.layer].mh
    if not 0 <= args.head < mh.num_heads:
        raise ParameterError(f"head {args.head} out of range [0, {mh.num_heads})")
    _, attn_in = encode_file(model, args.input, opts)
    z = attn_in[args.layer]
    export_heatmap(z, mh.heads[args.head], args.out)
    print(f"wrote {len(z)}x{len(z)} heatmap to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    refs = _read_tsv(args.refs)
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
        _atomic_write(args.out, "\n".join(jsonl) + "\n")
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

    def add_decode_flags(p):
        p.add_argument("--w", type=int, default=40, help="local half-window")
        p.add_argument("--beam", type=int, default=4)
        p.add_argument("--srs", action=argparse.BooleanOptionalAction, default=False)
        p.add_argument("--t-sil", type=int, default=15, dest="t_sil")
        p.add_argument("--overlap", type=float, default=2.0)

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
    p.add_argument("--w", type=int, default=40)
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
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AudioFormatError, ModelFormatError, FileNotFoundError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DataError, SparseRnntError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
