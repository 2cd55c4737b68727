"""Multimodal (image/audio/video) actor-pool stages.

Opaque ``binary`` payload columns + typed metadata, processed by actor-pool
``map_batches`` stages — the Ray-side plumbing (schemas, batch sizing, actor
signature, output layout) is real and tested; the actual codec calls are
STUBBED because image/audio libraries are not installed in this environment:

- with a real backend (``cv2``/``PIL``/soundfile), the ``_decode`` hook is
  the only thing to replace (import-gated attempt happens in ``__init__``,
  once per actor — the reference loads its OCR engine the same way,
  parser/ocr.py:25-201);
- without one, ``DeterministicFakeCodec`` derives stable pseudo-features
  from the payload bytes so pipelines stay testable end-to-end.

Mirrors the reference's image path (handlers/image.py:14-43 OCR extract,
image_deid/processor.py:22-62) at the orchestration level: decode →
feature/region extraction → per-row outputs with bbox-shaped metadata.

Scale note: binary rows are large — callers should use small ``batch_size``
(16–64) and let block splitting keep blocks under target_max_block_size.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

IMAGE_FEATURE_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("channels", pa.int32()),
        ("feature", pa.list_(pa.float32())),
        ("decode_backend", pa.string()),
    ]
)


class DeterministicFakeCodec:
    """Payload-hash-seeded stand-in for a real image/audio decoder."""

    name = "fake"

    def decode_image(self, payload: bytes) -> np.ndarray:
        digest = hashlib.blake2b(payload or b"", digest_size=8).digest()
        rng = np.random.RandomState(int.from_bytes(digest[:4], "big"))
        h, w = 8 + digest[4] % 56, 8 + digest[5] % 56
        return rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)

    def decode_audio(self, payload: bytes) -> np.ndarray:
        digest = hashlib.blake2b(payload or b"", digest_size=8).digest()
        rng = np.random.RandomState(int.from_bytes(digest[:4], "big"))
        return rng.standard_normal(1600).astype(np.float32)


def _real_image_codec():
    try:  # pragma: no cover - cv2/PIL not installed in this environment
        import cv2  # type: ignore

        class Cv2Codec:
            name = "cv2"

            def decode_image(self, payload: bytes) -> np.ndarray:
                arr = np.frombuffer(payload, dtype=np.uint8)
                img = cv2.imdecode(arr, cv2.IMREAD_COLOR)
                if img is None:
                    raise ValueError("undecodable image payload")
                return img

        return Cv2Codec()
    except ImportError:
        return None


class ImageFeatureStage:
    """Actor-pool stage: decode → resize-normalize → mean-pool features.

    Input rows: (media_id: string, payload: binary).  Output:
    IMAGE_FEATURE_SCHEMA.  Pass via ``map_batches(ImageFeatureStage,
    batch_size=32, concurrency=N, num_cpus=1)``.
    """

    def __init__(self, target: int = 16):
        self.codec = _real_image_codec() or DeterministicFakeCodec()  # once per actor
        self.target = target

    def _resize_mean_pool(self, img: np.ndarray) -> np.ndarray:
        h, w = img.shape[:2]
        ys = np.linspace(0, h - 1, self.target).astype(int)
        xs = np.linspace(0, w - 1, self.target).astype(int)
        resized = img[np.ix_(ys, xs)].astype(np.float32) / 255.0
        return resized.mean(axis=2).reshape(-1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict[str, list] = {k: [] for k in IMAGE_FEATURE_SCHEMA.names}
        for media_id, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            img = self.codec.decode_image(payload or b"")
            out["media_id"].append(media_id)
            out["height"].append(img.shape[0])
            out["width"].append(img.shape[1])
            out["channels"].append(img.shape[2])
            out["feature"].append([float(x) for x in self._resize_mean_pool(img)])
            out["decode_backend"].append(self.codec.name)
        return pa.Table.from_pydict(out, schema=IMAGE_FEATURE_SCHEMA)


class AudioFrameStage:
    """Actor-pool stage: decode audio → fixed-hop frame energies.

    Input rows: (media_id, payload).  Output adds ``n_frames`` and
    ``frame_energy: list<float32>``.
    """

    def __init__(self, hop: int = 160):
        self.codec = DeterministicFakeCodec()  # real decoder import-gated as above
        self.hop = hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        energies: list[list[float]] = []
        n_frames: list[int] = []
        for payload in batch["payload"].to_pylist():
            wave = self.codec.decode_audio(payload or b"")
            frames = wave[: len(wave) - len(wave) % self.hop].reshape(-1, self.hop)
            energy = (frames**2).mean(axis=1)
            energies.append([float(x) for x in energy])
            n_frames.append(len(energy))
        return batch.append_column(
            "n_frames", pa.array(n_frames, pa.int32())
        ).append_column("frame_energy", pa.array(energies, pa.list_(pa.float32())))


VIDEO_FRAME_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("frame_index", pa.int32()),
        ("ts_ms", pa.int32()),
        ("feature", pa.list_(pa.float32())),
        ("decode_backend", pa.string()),
    ]
)


class _FakeDemuxer:
    """Deterministic video-demux stand-in: payload bytes → N pseudo-frames
    (duration and content derived from the payload hash, like the fake
    image codec)."""

    name = "fake"

    def frames(self, payload: bytes, *, stride: int):
        digest = hashlib.blake2b(payload or b"", digest_size=8).digest()
        rng = np.random.RandomState(int.from_bytes(digest[:4], "big"))
        n_total = 8 + digest[4] % 120  # pseudo frame count
        fps = 25.0
        for idx in range(0, n_total, stride):
            yield idx, int(idx / fps * 1000), rng.randint(
                0, 256, size=(16, 16, 3), dtype=np.uint8
            )


def _real_demuxer():
    try:  # pragma: no cover - pyav/ffmpeg not installed in this environment
        import av  # type: ignore  # noqa: F401

        raise NotImplementedError("wire av.open(BytesIO(payload)) demux here")
    except ImportError:
        return None


class VideoFrameSampleStage:
    """Actor-pool stage: demux video payloads → every Nth frame → pooled
    frame features (one output ROW per sampled frame: a flat-map-shaped
    ``map_batches``).

    Input rows: (media_id: string, payload: binary).  Output:
    VIDEO_FRAME_SCHEMA.  The demuxer loads once per actor; the real pyav
    path is import-gated and the fake demuxer keeps the full plumbing
    (row explosion, frame schema, timestamp layout) testable.  Use small
    ``batch_size`` (4–16): video payloads are the largest rows a pipeline
    carries, and the output fans out ~n_frames/stride rows per input.
    """

    def __init__(self, stride: int = 10, target: int = 8):
        self.demux = _real_demuxer() or _FakeDemuxer()  # once per actor
        self.stride = max(1, stride)
        self.target = target

    def _pool(self, frame: np.ndarray) -> list[float]:
        ys = np.linspace(0, frame.shape[0] - 1, self.target).astype(int)
        xs = np.linspace(0, frame.shape[1] - 1, self.target).astype(int)
        pooled = frame[np.ix_(ys, xs)].astype(np.float32) / 255.0
        return [float(x) for x in pooled.mean(axis=2).reshape(-1)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict[str, list] = {k: [] for k in VIDEO_FRAME_SCHEMA.names}
        for media_id, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            for idx, ts_ms, frame in self.demux.frames(payload or b"", stride=self.stride):
                out["media_id"].append(media_id)
                out["frame_index"].append(idx)
                out["ts_ms"].append(ts_ms)
                out["feature"].append(self._pool(frame))
                out["decode_backend"].append(self.demux.name)
        return pa.Table.from_pydict(out, schema=VIDEO_FRAME_SCHEMA)
