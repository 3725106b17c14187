"""Multimodal column stages — image/audio/video as opaque binary columns.

The Ray-side plumbing (schema, actor-pool stage shape, batch sizing,
output layout) is real and tested. Codec dispatch is three-tier:

* if PIL / soundfile import, they decode everything they can;
* otherwise payloads in formats decodable with numpy + stdlib get a
  REAL decode via `toshi_ray.ops.codecs` — PNM images (PGM/PPM,
  ASCII or binary, 8/16-bit) and PCM WAV audio (stdlib ``wave``);
* anything else falls back to a clearly-marked deterministic fake
  (derived from the payload bytes) or raises NotImplementedError for
  operations where a fake would be misleading (resize).

Every decode stage emits a ``real_decode`` bool column so downstream
consumers (and tests) can tell which rows carried a working codec.

Pattern per SURVEY guidance: stateful actor pool (`map_batches(Cls,
concurrency=N, batch_size=small)`) — decoder/model state loads once per
actor; binary payloads keep batches SMALL so batch × concurrency fits
worker heaps.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from toshi_ray.ops import codecs

IMAGE_META_SCHEMA = [
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("mode", pa.string()),
]


class ImageDecodeStage:
    """binary `data` column → (width, height, mode, feature vector, real_decode).

    Decode order per payload: PIL when importable; else the builtin
    pure-numpy PNM codec (`ops.codecs`) for PGM/PPM payloads; else
    header-only geometry from the published PNG/GIF/JPEG container
    headers (`codecs.image_dims` — real width/height/format, mode
    suffixed "-header", feature falls through to the fake); else a
    deterministic fake geometry + feature from the payload hash so the
    pipeline shape (schema, batching, actor reuse) is still exercised.
    `real_decode` marks per row which rows got a full raster decode;
    `self.stubbed` tells callers whether PIL was available.
    """

    def __init__(self, feature_dim: int = 16, data_col: str = "data", id_col: str = "doc_id"):
        self.feature_dim = feature_dim
        self.data_col = data_col
        self.id_col = id_col
        try:  # state load happens ONCE per actor
            from PIL import Image  # noqa: F401

            self.stubbed = False
            self._Image = Image
        except ImportError:
            self.stubbed = True
            self._Image = None

    def __call__(self, t: pa.Table) -> pa.Table:
        from toshi_ray.codecs import _hash_strings

        if t.num_rows == 0:
            return pa.table(
                {
                    self.id_col: t[self.id_col],
                    "width": pa.array([], pa.int32()),
                    "height": pa.array([], pa.int32()),
                    "mode": pa.array([], pa.string()),
                    "feature": pa.FixedSizeListArray.from_arrays(
                        pa.array([], pa.float64()), self.feature_dim
                    ),
                    "real_decode": pa.array([], pa.bool_()),
                }
            )
        data = t[self.data_col].combine_chunks()
        n = t.num_rows
        w = np.zeros(n, dtype=np.int32)
        h = np.zeros(n, dtype=np.int32)
        mode = np.empty(n, dtype=object)
        feats = np.zeros((n, self.feature_dim), dtype=np.float64)
        real = np.zeros(n, dtype=bool)
        fake_idx = []  # fake geometry AND feature
        feat_fake_idx = []  # real header geometry; fake feature only
        if not self.stubbed:
            import io

            for i, payload in enumerate(data.to_pylist()):
                img = self._Image.open(io.BytesIO(payload))
                w[i], h[i], mode[i], real[i] = img.width, img.height, img.mode, True
                arr = np.asarray(img.convert("L").resize((4, 4)), dtype=np.float64)
                feats[i, : min(self.feature_dim, arr.size)] = (
                    arr.reshape(-1)[: self.feature_dim] / 255.0
                )
        else:
            for i, payload in enumerate(data.to_pylist()):
                if codecs.sniff(payload) == "pnm":
                    try:
                        arr, m = codecs.decode_pnm(payload)
                    except ValueError:
                        fake_idx.append(i)
                        continue
                    h[i], w[i] = arr.shape[0], arr.shape[1]
                    mode[i], real[i] = m, True
                    feats[i] = codecs.image_feature(arr, self.feature_dim)
                    continue
                dims = codecs.image_dims(payload)
                if dims is not None:
                    # PNG/JPEG/GIF header-only parse: REAL geometry from
                    # the published container headers (the 100-TB way to
                    # size-filter without a decode); raster features
                    # still need a full codec, so real_decode stays
                    # False and the feature falls through to the fake.
                    fmt, w[i], h[i] = dims
                    mode[i] = f"{fmt}-header"
                    feat_fake_idx.append(i)
                else:
                    fake_idx.append(i)
        if fake_idx or feat_fake_idx:
            # STUB: deterministic fake decode from payload bytes; rows
            # in feat_fake_idx keep their REAL header geometry and only
            # take the fake feature vector
            sub = np.asarray(sorted(fake_idx + feat_fake_idx), dtype=np.int64)
            hs = _hash_strings(data.take(pa.array(sub)).cast(pa.large_binary()))
            rng_bits = np.stack(
                [(hs >> np.uint64(4 * i)) & np.uint64(0xF) for i in range(self.feature_dim)],
                axis=1,
            ).astype(np.float64)
            feats[sub] = rng_bits / 15.0
            if fake_idx:
                gsub = np.asarray(fake_idx, dtype=np.int64)
                # gsub ⊂ sub (both sorted) — reuse the hashes above
                ghs = hs[np.searchsorted(sub, gsub)]
                w[gsub] = (ghs % np.uint64(1920) + np.uint64(1)).astype(np.int32)
                h[gsub] = ((ghs >> np.uint64(16)) % np.uint64(1080) + np.uint64(1)).astype(
                    np.int32
                )
                mode[gsub] = np.where(ghs % np.uint64(2) == 0, "RGB", "L")
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "width": pa.array(w),
                "height": pa.array(h),
                "mode": pa.array(list(mode), type=pa.string()),
                "feature": pa.FixedSizeListArray.from_arrays(
                    pa.array(feats.reshape(-1)), self.feature_dim
                ),
                "real_decode": pa.array(real),
            }
        )


class ImageResizeStage:
    """Resize: PIL for arbitrary formats when importable; the builtin
    pure-numpy codec resizes PNM payloads (box-mean shrink / nearest
    grow) and re-encodes binary PGM/PPM. Payloads NEITHER path can
    decode raise — a fake resize would silently corrupt a real
    pipeline."""

    def __init__(self, size: tuple[int, int] = (224, 224), data_col: str = "data"):
        self.size = size
        self.data_col = data_col
        try:
            from PIL import Image

            self._Image = Image
        except ImportError:
            self._Image = None

    def __call__(self, t: pa.Table) -> pa.Table:
        import io

        out = []
        for payload in t[self.data_col].to_pylist():
            if self._Image is not None:
                img = self._Image.open(io.BytesIO(payload)).resize(self.size)
                buf = io.BytesIO()
                img.save(buf, format="PNG")
                out.append(buf.getvalue())
            elif codecs.sniff(payload) == "pnm":
                arr, _ = codecs.decode_pnm(payload)
                resized = np.round(codecs.box_resize(arr, self.size))
                out.append(codecs.encode_pnm(resized.astype(arr.dtype)))
            else:
                raise NotImplementedError(
                    "ImageResizeStage: payload is not PNM and PIL is not "
                    "available in this container"
                )
        return t.set_column(
            t.schema.get_field_index(self.data_col), self.data_col, pa.array(out, pa.binary())
        )


class FrameSampleStage:
    """Video frame-sampling stub: emits every row's sampled frame
    *offsets* (pure arithmetic — real decoding needs a video lib).
    Output layout matches what a real decoder stage would produce."""

    def __init__(self, every_n_ms: int = 1000, duration_col: str = "duration_ms",
                 id_col: str = "doc_id"):
        self.every = every_n_ms
        self.duration_col = duration_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({self.id_col: t[self.id_col],
                             "frame_ms": pa.array([], pa.int64())})
        dur = t[self.duration_col].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.maximum(dur // self.every, 0) + 1
        ids = np.repeat(t[self.id_col].to_numpy(zero_copy_only=False), counts)
        # within-row frame index, fully vectorized (no per-row arange)
        total = int(counts.sum())
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        return pa.table(
            {
                self.id_col: pa.array(ids),
                "frame_ms": pa.array(within * self.every),
            }
        )


class AudioFeatureStage:
    """binary audio payload → (n_samples, sample_rate, feature, real_decode).

    Decode order per payload: soundfile when importable; else the
    builtin stdlib-``wave`` PCM codec (`ops.codecs`) for RIFF/WAVE
    payloads; else a deterministic fake from the payload hash (like
    ImageDecodeStage) so the actor-pool shape, schema and batching are
    exercised end to end. `real_decode` marks which path ran per row."""

    def __init__(self, feature_dim: int = 8, data_col: str = "data",
                 id_col: str = "doc_id"):
        self.feature_dim = feature_dim
        self.data_col = data_col
        self.id_col = id_col
        try:  # decoder state loads ONCE per actor
            import soundfile  # noqa: F401

            self.stubbed = False
            self._sf = soundfile
        except ImportError:
            self.stubbed = True
            self._sf = None

    def __call__(self, t: pa.Table) -> pa.Table:
        from toshi_ray.codecs import _hash_strings

        if t.num_rows == 0:
            return pa.table(
                {
                    self.id_col: t[self.id_col],
                    "n_samples": pa.array([], pa.int64()),
                    "sample_rate": pa.array([], pa.int32()),
                    "feature": pa.FixedSizeListArray.from_arrays(
                        pa.array([], pa.float64()), self.feature_dim
                    ),
                    "real_decode": pa.array([], pa.bool_()),
                }
            )
        data = t[self.data_col].combine_chunks()
        n = t.num_rows
        ns = np.zeros(n, dtype=np.int64)
        sr = np.zeros(n, dtype=np.int32)
        feats = np.zeros((n, self.feature_dim), dtype=np.float64)
        real = np.zeros(n, dtype=bool)
        fake_idx = []
        if not self.stubbed:
            import io

            for i, payload in enumerate(data.to_pylist()):
                wav, rate = self._sf.read(io.BytesIO(payload))
                wav = np.atleast_2d(np.asarray(wav, dtype=np.float64).T)
                ns[i], sr[i], real[i] = wav.shape[1], rate, True
                feats[i] = codecs.audio_feature(wav.T, self.feature_dim)
        else:
            for i, payload in enumerate(data.to_pylist()):
                if codecs.sniff(payload) == "wav":
                    try:
                        x, rate = codecs.decode_wav(payload)
                    except Exception:  # wave.Error / ValueError: corrupt payload
                        fake_idx.append(i)
                        continue
                    ns[i], sr[i], real[i] = x.shape[0], rate, True
                    feats[i] = codecs.audio_feature(x, self.feature_dim)
                else:
                    fake_idx.append(i)
        if fake_idx:
            sub = np.asarray(fake_idx, dtype=np.int64)
            hs = _hash_strings(data.take(pa.array(sub)).cast(pa.large_binary()))
            ns[sub] = (hs % np.uint64(48_000 * 30) + np.uint64(1)).astype(np.int64)
            sr[sub] = np.where(hs % np.uint64(2) == 0, 16_000, 44_100).astype(np.int32)
            feats[sub] = np.stack(
                [(hs >> np.uint64(5 * i)) & np.uint64(0x1F)
                 for i in range(self.feature_dim)], axis=1
            ).astype(np.float64) / 31.0
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "n_samples": pa.array(ns),
                "sample_rate": pa.array(sr),
                "feature": pa.FixedSizeListArray.from_arrays(
                    pa.array(feats.reshape(-1)), self.feature_dim
                ),
                "real_decode": pa.array(real),
            }
        )


def extract_audio_features(ds, *, concurrency: int = 4, batch_size: int = 64, **kw):
    """Actor-pool wrapper for audio payloads (small batches, wide rows)."""
    return ds.map_batches(
        AudioFeatureStage,
        fn_constructor_kwargs=kw,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def decode_images(ds, *, concurrency: int = 4, batch_size: int = 64, **kw):
    """Actor-pool wrapper: small batches because payloads are wide."""
    return ds.map_batches(
        ImageDecodeStage,
        fn_constructor_kwargs=kw,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
