"""Binary encoding and decoding of instructions.

Instructions are encoded as 32-bit little-endian words using the Alpha
AXP instruction formats:

* **operate** (integer): ``major[31:26] ra[25:21] rb[20:16] 000 0
  func[11:5] rc[4:0]``; with an 8-bit literal the layout is
  ``major ra lit[20:13] 1 func[11:5] rc``;
* **operate** (floating-point): ``major[31:26] fa[25:21] fb[20:16]
  func[15:5] fc[4:0]`` — an 11-bit function field, no literal form;
* **memory**: ``major[31:26] ra[25:21] rb[20:16] disp[15:0]`` with a
  signed 16-bit byte displacement;
* **branch**: ``major[31:26] ra[25:21] disp[20:0]`` with a signed 21-bit
  displacement counted in instruction words;
* **jump**: ``0x1A ra[25:21] rb[20:16] type[15:14] hint[13:0]``;
* **pal**: ``0x00 func[25:0]``.

Register fields store the 5-bit number within the integer or floating
register file; whether a field refers to the integer or the floating file
is a static property of the opcode (see :data:`FIELD_FILES`).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Tuple

from repro.isa.instructions import (
    Format,
    Instruction,
    Opcode,
)
from repro.isa.registers import NUM_INTEGER_REGISTERS, ZERO_REGISTER

#: Size of one encoded instruction, in bytes.
INSTRUCTION_SIZE = 4

_WORD = struct.Struct("<I")


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or decoded."""


# ----------------------------------------------------------------------
# Which register file does each field of each opcode use?
# ----------------------------------------------------------------------

_INT = "i"
_FP = "f"


def _field_files(opcode: Opcode) -> Tuple[str, str, str]:
    """Files (integer/float) for the (ra, rb, rc) fields of ``opcode``."""
    if opcode is Opcode.ITOFT:
        return (_INT, _INT, _FP)
    if opcode is Opcode.FTOIT:
        return (_FP, _FP, _INT)
    fmt = opcode.format
    if fmt == Format.OPERATE_FP:
        return (_FP, _FP, _FP)
    if fmt == Format.MEMORY_FP:
        return (_FP, _INT, _INT)
    if fmt == Format.BRANCH_FP:
        return (_FP, _INT, _INT)
    return (_INT, _INT, _INT)


#: Per-opcode (ra, rb, rc) register-file assignment.
FIELD_FILES: Dict[Opcode, Tuple[str, str, str]] = {
    op: _field_files(op) for op in Opcode
}


def _to_field(index: int, file: str, opcode: Opcode) -> int:
    """Unified register index -> 5-bit field value."""
    if file == _FP:
        if index < NUM_INTEGER_REGISTERS:
            raise EncodingError(
                f"{opcode.mnemonic}: expected a floating register, got index {index}"
            )
        return index - NUM_INTEGER_REGISTERS
    if index >= NUM_INTEGER_REGISTERS:
        raise EncodingError(
            f"{opcode.mnemonic}: expected an integer register, got index {index}"
        )
    return index


# ----------------------------------------------------------------------
# Decode tables
# ----------------------------------------------------------------------

#: Which of the (ra, rb, rc) fields each format encodes.
_ENCODED_FIELDS: Dict[Format, Tuple[bool, bool, bool]] = {
    Format.OPERATE: (True, True, True),
    Format.OPERATE_FP: (True, True, True),
    Format.MEMORY: (True, True, False),
    Format.MEMORY_FP: (True, True, False),
    Format.BRANCH: (True, False, False),
    Format.BRANCH_FP: (True, False, False),
    Format.JUMP: (True, True, False),
    Format.PAL: (False, False, False),
}

#: ``(opcode, has literal, ra mask, ra offset, rb mask, rb offset, rc
#: mask, rc offset)``: register ``r`` is ``(field & mask) + offset``, so
#: a field the format does not encode reads as mask 0, offset
#: ``ZERO_REGISTER``.
_Decoder = Tuple[Opcode, bool, int, int, int, int, int, int]


def _decoder(opcode: Opcode, literal: bool = False) -> _Decoder:
    encoded = (True, False, True) if literal else _ENCODED_FIELDS[opcode.format]
    spec: List[int] = []
    for present, file in zip(encoded, FIELD_FILES[opcode]):
        if present:
            spec += (0x1F, NUM_INTEGER_REGISTERS if file == _FP else 0)
        else:
            spec += (0, ZERO_REGISTER)
    return (opcode, literal, *spec)  # type: ignore[return-value]


#: How a format's opcode and operands sit in a word: the width of its
#: displacement (memory and branch), or the ``(shift, mask, name)`` of
#: the field that picks the opcode under its major.  Integer operate
#: selects on bits 12:5, so the literal flag is part of its selector.
_LAYOUTS: Dict[Format, object] = {
    Format.MEMORY: 16,
    Format.MEMORY_FP: 16,
    Format.BRANCH: 21,
    Format.BRANCH_FP: 21,
    Format.OPERATE: (5, 0xFF, "operate literal flag + function"),
    Format.OPERATE_FP: (5, 0x7FF, "FP operate function"),
    Format.JUMP: (14, 0x3, "jump type"),
    Format.PAL: (0, 0x03FF_FFFF, "PAL function"),
}


def _build_tables() -> Tuple[
    Dict[int, Tuple[int, int, _Decoder]],
    Dict[int, Tuple[int, int, str, Dict[int, _Decoder]]],
]:
    """Per major opcode: ``displaced[major] = (displacement mask, sign
    bit, decoder)`` for memory and branch words, and ``selected[major]
    = (shift, mask, name, {selector: decoder})`` for the rest."""
    displaced: Dict[int, Tuple[int, int, _Decoder]] = {}
    selected: Dict[int, Tuple[int, int, str, Dict[int, _Decoder]]] = {}
    for op in Opcode:
        major, layout = op.info.major, _LAYOUTS[op.format]
        if isinstance(layout, int):
            if major in displaced or major in selected:
                raise AssertionError(f"{op.mnemonic}: major {major:#x} reused")
            displaced[major] = ((1 << layout) - 1, 1 << (layout - 1), _decoder(op))
            continue
        entry = selected.setdefault(major, (*layout, {}))  # type: ignore[misc]
        decoders = entry[3]
        if entry[:3] != layout or major in displaced or op.info.function in decoders:
            raise AssertionError(f"{op.mnemonic}: encoding clashes")
        decoders[op.info.function] = _decoder(op)
        if op.format == Format.OPERATE:
            decoders[(1 << 7) | op.info.function] = _decoder(op, literal=True)
    return displaced, selected


_DISPLACED, _SELECTED = _build_tables()


def _unsigned(value: int, bits: int, what: str) -> int:
    low = -(1 << (bits - 1))
    high = (1 << (bits - 1)) - 1
    if not low <= value <= high:
        raise EncodingError(f"{what} {value} out of signed {bits}-bit range")
    return value & ((1 << bits) - 1)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def encode_instruction(instruction: Instruction) -> int:
    """Encode ``instruction`` into its 32-bit word."""
    op = instruction.opcode
    info = op.info
    files = FIELD_FILES[op]
    fmt = op.format
    word = info.major << 26

    if fmt == Format.OPERATE:
        ra = _to_field(instruction.ra, files[0], op)
        rc = _to_field(instruction.rc, files[2], op)
        if instruction.literal is not None:
            word |= ra << 21
            word |= (instruction.literal & 0xFF) << 13
            word |= 1 << 12
        else:
            rb = _to_field(instruction.rb, files[1], op)
            word |= ra << 21
            word |= rb << 16
        word |= (info.function & 0x7F) << 5
        word |= rc
        return word

    if fmt == Format.OPERATE_FP:
        if instruction.literal is not None:
            raise EncodingError(f"{op.mnemonic}: no literal form")
        ra = _to_field(instruction.ra, files[0], op)
        rb = _to_field(instruction.rb, files[1], op)
        rc = _to_field(instruction.rc, files[2], op)
        word |= ra << 21
        word |= rb << 16
        word |= (info.function & 0x7FF) << 5
        word |= rc
        return word

    if fmt in (Format.MEMORY, Format.MEMORY_FP):
        ra = _to_field(instruction.ra, files[0], op)
        rb = _to_field(instruction.rb, files[1], op)
        word |= ra << 21
        word |= rb << 16
        word |= _unsigned(instruction.displacement, 16, "memory displacement")
        return word

    if fmt in (Format.BRANCH, Format.BRANCH_FP):
        ra = _to_field(instruction.ra, files[0], op)
        word |= ra << 21
        word |= _unsigned(instruction.displacement, 21, "branch displacement")
        return word

    if fmt == Format.JUMP:
        ra = _to_field(instruction.ra, files[0], op)
        rb = _to_field(instruction.rb, files[1], op)
        word |= ra << 21
        word |= rb << 16
        word |= (info.function & 0x3) << 14
        return word

    # PAL
    word |= info.function & 0x03FF_FFFF
    return word


def _build(decoder: _Decoder, word: int) -> Instruction:
    opcode, literal, ma, oa, mb, ob, mc, oc = decoder
    return Instruction(
        opcode,
        ((word >> 21) & ma) + oa,
        ((word >> 16) & mb) + ob,
        (word & mc) + oc,
        (word >> 13) & 0xFF if literal else None,
    )


def _decode_word(word: int, shapes: Dict[int, Instruction]) -> Instruction:
    """Decode ``word``; memory and branch words copy the validated
    prototype in ``shapes`` for their shape (the word without its
    displacement), building it on first sight."""
    major = word >> 26
    displaced = _DISPLACED.get(major)
    if displaced is not None:
        mask, sign, decoder = displaced
        field = word & mask
        prototype = shapes.get(word - field)
        if prototype is None:
            prototype = shapes[word - field] = _build(decoder, word - field)
        displacement = (field ^ sign) - sign
        return prototype.with_displacement(displacement) if displacement else prototype
    selected = _SELECTED.get(major)
    if selected is None:
        raise EncodingError(f"unknown major opcode {major:#x}")
    shift, mask, what, decoders = selected
    selector = (word >> shift) & mask
    decoder = decoders.get(selector)
    if decoder is None:
        raise EncodingError(f"major {major:#x}: unknown {what} {selector:#x}")
    return _build(decoder, word)


def decode_instruction(word: int) -> Instruction:
    """Decode a 32-bit word back into an :class:`Instruction`."""
    if not 0 <= word < 1 << 32:
        raise EncodingError(f"word {word:#x} is not a 32-bit value")
    return _decode_word(word, {})


# ----------------------------------------------------------------------
# Bulk helpers
# ----------------------------------------------------------------------

def encode_stream(instructions: Iterable[Instruction]) -> bytes:
    """Encode a sequence of instructions into contiguous code bytes."""
    return b"".join(_WORD.pack(encode_instruction(i)) for i in instructions)


def decode_stream(code: bytes, base: int = 0) -> List[Instruction]:
    """Decode contiguous code bytes back into instructions.

    Each distinct word is decoded once and its instruction shared by
    every occurrence; an undecodable word is reported with its address,
    counting the first byte of ``code`` as ``base``.
    """
    if len(code) % INSTRUCTION_SIZE:
        raise EncodingError(
            f"code length {len(code)} is not a multiple of {INSTRUCTION_SIZE}"
        )
    words = [word for (word,) in _WORD.iter_unpack(code)]
    decoded: Dict[int, Instruction] = {}
    shapes: Dict[int, Instruction] = {}
    for word in dict.fromkeys(words):
        try:
            decoded[word] = _decode_word(word, shapes)
        except EncodingError as error:
            address = base + INSTRUCTION_SIZE * words.index(word)
            raise EncodingError(
                f"word {word:#010x} at {address:#x}: {error}"
            ) from None
    return [decoded[word] for word in words]
