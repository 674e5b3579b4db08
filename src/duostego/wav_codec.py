"""Read and write uncompressed 16-bit PCM RIFF/WAVE files.

Samples are exposed as raw unsigned 16-bit patterns in file interleave
order, one slot per channel sample; embedding is a bit operation, so
signedness never matters at this layer. Chunks other than ``fmt `` and
``data`` are preserved verbatim and re-emitted after the data chunk, so
a rewritten file stays as close to its source as the format allows.
The data chunk itself round-trips byte for byte.

The first write of a clip whose samples are a whole sample_buffer tail
claims that buffer: its header room becomes the file's header, so the
write copies no sample. read_file reads a file into one numpy buffer,
which parse_wav views without a copy.
"""

from __future__ import annotations

import operator
import os
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    MissingChunkError,
    NotRiffError,
    TruncatedError,
    UnsupportedCodecError,
    UnsupportedDepthError,
)

WAVE_FORMAT_PCM = 1
BYTES_PER_SAMPLE = 2

_FMT_STRUCT = struct.Struct("<HHIIHH")
_U32 = struct.Struct("<I")
# RIFF header, fmt chunk and data chunk header of a canonical file
_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")
_HEADER_SLOTS = _HEADER.size // BYTES_PER_SAMPLE
# Every unclaimed sample_buffer allocation by the address of its sample
# tail. write_wav pops one to claim its header room, so it fills the room
# of its own buffers only, once each, never the head of a caller's array.
_IMAGES: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Decoded 16-bit PCM audio: format metadata plus raw sample patterns.

    A clip built in code meets the limits of a parsed one, so write_wav
    turns every clip into a file parse_wav reads back. A rate or channel
    count the fmt chunk cannot hold, or one that is not an integer,
    raises UnsupportedCodecError; numpy integers are stored as int.
    ``samples`` is a read-only 1-D uint16 array in file interleave order,
    built from integers in [-32768, 65535] as their 16-bit patterns;
    floats, other values and other shapes raise UnsupportedCodecError.
    A uint16 or int16 array is viewed, not copied (a copy would double
    every carrier-sized peak), and a parsed clip views the file bytes.
    ``trailing_chunks`` holds the non-fmt, non-data RIFF chunks verbatim
    as (4-byte id, body) bytes pairs; anything else raises
    UnsupportedCodecError. Clips compare by identity: compare write_wav
    output to compare contents.
    """

    sample_rate: int
    channel_count: int
    samples: np.ndarray
    trailing_chunks: tuple[tuple[bytes, bytes], ...] = ()

    def __post_init__(self):
        try:
            rate, channels = operator.index(self.sample_rate), operator.index(self.channel_count)
        except TypeError:
            raise UnsupportedCodecError(
                f"rate {self.sample_rate!r} and channel count {self.channel_count!r} "
                "must be integers"
            ) from None
        block_align = channels * BYTES_PER_SAMPLE  # a 16-bit fmt field; the byte rate is 32-bit
        if not (0 < block_align <= 0xFFFF and 0 < rate * block_align < 1 << 32):
            raise UnsupportedCodecError(f"{channels} channels at {rate} Hz do not fit the fmt chunk")
        try:
            arr = np.asarray(self.samples)
        except ValueError:  # a ragged nested sequence
            raise UnsupportedCodecError("samples must be a 1-D interleaved array, got a ragged sequence") from None
        wide = arr.size and arr.itemsize > 2  # every parsed clip is uint16 and skips the range pass
        if arr.size and arr.dtype.kind not in "iu" or wide and not -0x8000 <= arr.min() <= arr.max() <= 0xFFFF:
            raise UnsupportedCodecError(f"samples must be integers in [-32768, 65535], got {arr.dtype}")
        if arr.ndim != 1:
            raise UnsupportedCodecError(f"samples must be a 1-D interleaved array, got shape {arr.shape}")
        if arr.dtype == np.int16:  # native order only: its bytes are already the patterns
            arr = arr.view(np.uint16)
        arr = np.ascontiguousarray(arr, dtype=np.uint16).view()
        arr.setflags(write=False)
        try:
            chunks = tuple((bytes(memoryview(cid)), bytes(memoryview(body))) for cid, body in self.trailing_chunks)
        except (TypeError, ValueError):
            raise UnsupportedCodecError("trailing chunks must be (chunk id, body) pairs of bytes") from None
        if any(len(cid) != 4 for cid, _ in chunks):
            raise UnsupportedCodecError(f"chunk ids must be 4 bytes: {[cid for cid, _ in chunks]}")
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "channel_count", channels)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "trailing_chunks", chunks)

    @property
    def sample_count(self) -> int:
        """Number of 16-bit slots (every channel sample counts)."""
        return int(self.samples.size)

    def with_samples(self, samples: np.ndarray) -> "AudioClip":
        """Copy of this clip with the sample array replaced."""
        return AudioClip(self.sample_rate, self.channel_count, samples, self.trailing_chunks)


def parse_wav(data) -> AudioClip:
    """Decode a RIFF/WAVE byte stream into an AudioClip.

    Accepts only integer PCM (format tag 1) at 16 bits per sample.
    Raises NotRiffError, UnsupportedCodecError, UnsupportedDepthError,
    TruncatedError or MissingChunkError on anything else. ``data`` is
    any C-contiguous buffer, read as bytes. The clip's samples view the
    data chunk of a read-only buffer (bytes, write_wav output) without
    copying it; a writable one (bytearray, writable memoryview) is
    copied once first.
    """
    view = memoryview(data).cast("B")
    if not view.readonly:
        view = memoryview(bytes(view))
    if len(view) < 12 or view[:4] != b"RIFF" or view[8:12] != b"WAVE":
        raise NotRiffError("missing RIFF/WAVE magic")
    (riff_size,) = _U32.unpack_from(view, 4)
    end = 8 + riff_size
    if end > len(view):
        raise TruncatedError(
            f"RIFF declares {riff_size} bytes but only {len(view) - 8} are present"
        )

    fmt_body = None
    data_body = None
    trailing = []
    pos = 12
    while pos < end:
        if pos + 8 > end:
            raise TruncatedError("dangling bytes where a chunk header was expected")
        cid = bytes(view[pos : pos + 4])
        (size,) = _U32.unpack_from(view, pos + 4)
        body_start = pos + 8
        if body_start + size > end:
            raise TruncatedError(
                f"chunk {cid!r} declares {size} bytes but only "
                f"{end - body_start} remain"
            )
        body = view[body_start : body_start + size]
        if cid == b"fmt " and fmt_body is None:
            fmt_body = body
        elif cid == b"data" and data_body is None:
            data_body = body
        else:
            trailing.append((cid, body))  # the clip copies it
        pos = body_start + size + (size & 1)  # odd chunks carry a pad byte

    if fmt_body is None:
        raise MissingChunkError("no fmt chunk")
    if data_body is None:
        raise MissingChunkError("no data chunk")
    if len(fmt_body) < _FMT_STRUCT.size:
        raise TruncatedError(f"fmt chunk is {len(fmt_body)} bytes, need at least 16")

    tag, channels, rate, _byte_rate, _block_align, bits = _FMT_STRUCT.unpack_from(fmt_body)
    if tag != WAVE_FORMAT_PCM:
        raise UnsupportedCodecError(f"format tag {tag}, only integer PCM (1) is supported")
    if bits != 16:
        raise UnsupportedDepthError(f"{bits} bits per sample, only 16 is supported")
    if len(data_body) % BYTES_PER_SAMPLE:
        raise TruncatedError(
            f"data chunk length {len(data_body)} is odd; a 16-bit sample is cut off"
        )

    samples = np.frombuffer(data_body, dtype="<u2")
    return AudioClip(rate, channels, samples, tuple(trailing))


def read_file(path) -> memoryview:
    """The bytes of the file at ``path``, as a read-only ``memoryview`` of format ``B``.

    The file is read with ``readinto`` into one numpy buffer of the size
    ``fstat`` reports, then on to its end, so a file that grew or shrank
    since, and a pipe (size 0), give exactly the bytes read. numpy
    advises a buffer of 4 MiB or more onto transparent huge pages, so
    filling it takes a fraction of the page faults a ``bytes`` object
    does, and parse_wav views it without a copy. OSError propagates as
    from open.
    """
    with open(path, "rb", buffering=0) as file:
        buf = np.empty(os.fstat(file.fileno()).st_size, np.uint8)
        view, got = memoryview(buf), 0
        while got < buf.size and (n := file.readinto(view[got:])):
            got += n
        rest = file.read()
    buf = np.concatenate((buf[:got], np.frombuffer(rest, np.uint8))) if rest else buf[:got]
    buf.setflags(write=False)
    return memoryview(buf)


def sample_buffer(n: int) -> np.ndarray:
    """A writable uint16 array of n samples that write_wav can write in place.

    The array is the tail of one allocation with _HEADER.size bytes of
    header room in front. The first write_wav of a clip of the whole
    array, with no trailing chunks, claims it: the room gets the header
    and the file is the allocation itself, so no sample is copied. A
    write to the array after that changes that file.
    """
    image = np.empty(_HEADER_SLOTS + n, "<u2")
    samples = image[_HEADER_SLOTS:]
    _IMAGES[samples.__array_interface__["data"][0]] = image
    return samples


def write_wav(clip: AudioClip) -> memoryview:
    """Serialize an AudioClip as a canonical RIFF/WAVE byte stream.

    Layout: RIFF header, 16-byte PCM fmt chunk, data chunk, then any
    preserved trailing chunks (padded to even length per RIFF rules).
    The result is a read-only ``memoryview`` of format ``B`` over one
    numpy buffer: it compares ``==`` to bytes, slices, hashes and writes
    to a file as bytes do.

    The first write of a clip over a whole sample_buffer tail, with no
    trailing chunks, claims that buffer: the header goes into its room
    and the view covers the buffer, so the file shares memory with the
    samples. Any other clip, and any later write over the same buffer,
    is copied once into a new buffer. A numpy buffer this size is
    advised onto transparent huge pages, so filling it takes a fraction
    of the page faults a joined ``bytes`` object does.
    """
    data_size = clip.samples.nbytes
    riff_size = _HEADER.size - 8 + data_size
    riff_size += sum(8 + len(body) + (len(body) & 1) for _, body in clip.trailing_chunks)
    block_align = clip.channel_count * BYTES_PER_SAMPLE
    header = _HEADER.pack(
        b"RIFF", riff_size, b"WAVE", b"fmt ", _FMT_STRUCT.size,
        WAVE_FORMAT_PCM, clip.channel_count, clip.sample_rate,
        clip.sample_rate * block_align, block_align, 16, b"data", data_size,
    )
    key = clip.samples.__array_interface__["data"][0]
    image = None if clip.trailing_chunks else _IMAGES.get(key)
    # dict.pop is atomic: of all writes over one buffer, one gets it back
    if image is not None and image.nbytes == _HEADER.size + data_size and _IMAGES.pop(key, None) is image:
        out = image.view(np.uint8)
    else:
        out = np.empty(8 + riff_size, np.uint8)
        pos = _HEADER.size + data_size
        out[_HEADER.size : pos].view("<u2")[:] = clip.samples
        for cid, body in clip.trailing_chunks:
            padded = len(body) + (len(body) & 1)  # "s" fills the pad byte with a zero
            struct.pack_into(f"<4sI{padded}s", out, pos, cid, len(body), body)
            pos += 8 + padded
    out[: _HEADER.size] = np.frombuffer(header, np.uint8)
    out.setflags(write=False)
    return memoryview(out)
