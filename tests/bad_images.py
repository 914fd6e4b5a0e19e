"""Images that pass the container checks but not decoding.

Each helper takes a valid serialized image and returns a copy the
loader must reject with :class:`~repro.program.image.ImageFormatError`
(CLI exit 3, HTTP 400), never a traceback.
"""

import struct

from repro.program.image import ExecutableImage

#: A text word whose major opcode (0x05) no instruction uses.
UNDECODABLE_WORD = 0x05 << 26


def undecodable_first_word(blob: bytes) -> bytes:
    """``blob`` with its first text word replaced by an unknown opcode."""
    image = ExecutableImage.from_bytes(blob)
    image.text = struct.pack("<I", UNDECODABLE_WORD) + image.text[4:]
    return image.to_bytes()


def non_utf8_symbol_name(blob: bytes, name: str) -> bytes:
    """``blob`` with the first byte of symbol ``name`` made non-UTF-8."""
    encoded = name.encode("utf-8")
    assert blob.count(encoded) == 1, "symbol name must be unique in the blob"
    return blob.replace(encoded, b"\xff" + encoded[1:])
