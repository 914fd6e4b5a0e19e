"""Tests for repro.isa.encoding: 32-bit round trips and error paths."""

import dataclasses
import itertools
import pickle
import struct

import pytest
from hypothesis import given, strategies as st

from repro.isa.encoding import (
    FIELD_FILES,
    EncodingError,
    decode_instruction,
    decode_stream,
    encode_instruction,
    encode_stream,
)
from repro.isa.instructions import ControlKind, Format, Instruction, Opcode
from repro.isa.registers import FLOAT_ZERO_REGISTER, Register, ZERO_REGISTER


def roundtrip(instruction: Instruction) -> Instruction:
    word = encode_instruction(instruction)
    assert 0 <= word < 1 << 32
    return decode_instruction(word)


class TestRoundTrips:
    def test_operate_register_form(self):
        ins = Instruction(Opcode.ADDQ, ra=1, rb=2, rc=3)
        assert roundtrip(ins) == ins

    def test_operate_literal_form(self):
        ins = Instruction(Opcode.SUBQ, ra=1, rc=3, literal=255)
        assert roundtrip(ins) == ins

    def test_float_operate(self):
        ins = Instruction(Opcode.MULT, ra=34, rb=35, rc=36)
        assert roundtrip(ins) == ins

    def test_itoft_mixed_files(self):
        ins = Instruction(Opcode.ITOFT, ra=5, rb=ZERO_REGISTER, rc=40)
        decoded = roundtrip(ins)
        assert decoded.ra == 5 and decoded.rc == 40

    def test_ftoit_mixed_files(self):
        ins = Instruction(Opcode.FTOIT, ra=40, rb=63, rc=5)
        decoded = roundtrip(ins)
        assert decoded.ra == 40 and decoded.rc == 5

    def test_memory_negative_displacement(self):
        ins = Instruction(Opcode.LDQ, ra=1, rb=30, displacement=-32768)
        assert roundtrip(ins) == ins

    def test_memory_positive_displacement(self):
        ins = Instruction(Opcode.STQ, ra=1, rb=30, displacement=32767)
        assert roundtrip(ins) == ins

    def test_float_memory(self):
        ins = Instruction(Opcode.STT, ra=40, rb=30, displacement=8)
        assert roundtrip(ins) == ins

    def test_branch_displacements(self):
        for displacement in (-(1 << 20), -1, 0, 1, (1 << 20) - 1):
            ins = Instruction(Opcode.BEQ, ra=1, displacement=displacement)
            assert roundtrip(ins) == ins

    def test_bsr(self):
        ins = Instruction(Opcode.BSR, ra=26, displacement=1000)
        assert roundtrip(ins) == ins

    def test_float_branch(self):
        ins = Instruction(Opcode.FBNE, ra=34, displacement=-5)
        assert roundtrip(ins) == ins

    def test_jump_family(self):
        for opcode in (Opcode.JMP, Opcode.JSR, Opcode.RET):
            ins = Instruction(opcode, ra=26, rb=27)
            assert roundtrip(ins) == ins

    def test_pal(self):
        assert roundtrip(Instruction(Opcode.HALT)) == Instruction(Opcode.HALT)
        assert roundtrip(Instruction(Opcode.OUTPUT)) == Instruction(Opcode.OUTPUT)

    @pytest.mark.parametrize("opcode", [
        op for op in Opcode
        if op.format in (Format.OPERATE, Format.OPERATE_FP)
    ])
    def test_every_operate_opcode(self, opcode):
        if opcode.format == Format.OPERATE_FP:
            ins = Instruction(opcode, ra=33, rb=34, rc=35)
            if opcode is Opcode.FTOIT:
                ins = Instruction(opcode, ra=33, rb=34, rc=3)
        elif opcode is Opcode.ITOFT:
            ins = Instruction(opcode, ra=3, rb=4, rc=35)
        else:
            ins = Instruction(opcode, ra=3, rb=4, rc=5)
        assert roundtrip(ins) == ins


class TestErrors:
    def test_branch_displacement_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.BR, displacement=1 << 20))

    def test_memory_displacement_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_instruction(
                Instruction(Opcode.LDQ, ra=1, rb=2, displacement=1 << 15)
            )

    def test_wrong_register_file_rejected(self):
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.ADDQ, ra=40, rb=2, rc=3))
        with pytest.raises(EncodingError):
            encode_instruction(Instruction(Opcode.ADDT, ra=1, rb=34, rc=35))

    def test_unknown_major_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x07 << 26)  # major 0x07 is unassigned

    def test_unknown_operate_function_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x10 << 26 | 0x7F << 5)  # bad function

    def test_unknown_pal_function(self):
        with pytest.raises(EncodingError):
            decode_instruction(0x0000_1234)

    def test_word_out_of_range(self):
        with pytest.raises(EncodingError):
            decode_instruction(1 << 32)

    def test_stream_length_checked(self):
        with pytest.raises(EncodingError):
            decode_stream(b"\x00\x01\x02")


class TestStreams:
    def test_stream_roundtrip(self):
        instructions = [
            Instruction(Opcode.LDA, ra=1, rb=31, displacement=7),
            Instruction(Opcode.ADDQ, ra=1, rb=1, rc=2),
            Instruction(Opcode.RET, rb=26),
        ]
        assert decode_stream(encode_stream(instructions)) == instructions

    def test_empty_stream(self):
        assert decode_stream(b"") == []
        assert encode_stream([]) == b""


# Hypothesis strategies for arbitrary well-formed instructions.
_INT_REG = st.integers(min_value=0, max_value=31)
_FP_REG = st.integers(min_value=32, max_value=63)


@st.composite
def instructions(draw):
    opcode = draw(st.sampled_from(list(Opcode)))
    fmt = opcode.format
    if fmt == Format.OPERATE:
        if opcode is Opcode.ITOFT:
            ra, rb, rc = draw(_INT_REG), draw(_INT_REG), draw(_FP_REG)
        else:
            ra, rb, rc = draw(_INT_REG), draw(_INT_REG), draw(_INT_REG)
        if draw(st.booleans()):
            return Instruction(
                opcode, ra=ra, rc=rc,
                literal=draw(st.integers(min_value=0, max_value=255)),
            )
        return Instruction(opcode, ra=ra, rb=rb, rc=rc)
    if fmt == Format.OPERATE_FP:
        if opcode is Opcode.FTOIT:
            return Instruction(
                opcode, ra=draw(_FP_REG), rb=draw(_FP_REG), rc=draw(_INT_REG)
            )
        return Instruction(
            opcode, ra=draw(_FP_REG), rb=draw(_FP_REG), rc=draw(_FP_REG)
        )
    if fmt in (Format.MEMORY, Format.MEMORY_FP):
        ra = draw(_FP_REG if fmt == Format.MEMORY_FP else _INT_REG)
        return Instruction(
            opcode, ra=ra, rb=draw(_INT_REG),
            displacement=draw(st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)),
        )
    if fmt in (Format.BRANCH, Format.BRANCH_FP):
        ra = draw(_FP_REG if fmt == Format.BRANCH_FP else _INT_REG)
        return Instruction(
            opcode, ra=ra,
            displacement=draw(st.integers(min_value=-(1 << 20), max_value=(1 << 20) - 1)),
        )
    if fmt == Format.JUMP:
        return Instruction(opcode, ra=draw(_INT_REG), rb=draw(_INT_REG))
    return Instruction(opcode)


@given(instructions())
def test_property_roundtrip(instruction):
    """Every well-formed instruction survives encode/decode unchanged."""
    assert roundtrip(instruction) == instruction


@given(instructions())
def test_property_encoding_is_deterministic(instruction):
    assert encode_instruction(instruction) == encode_instruction(instruction)


# ----------------------------------------------------------------------
# Decode equivalence: the table-driven decoder against a field-by-field
# reference built only from the opcode table and the validating
# constructor, with uses/defs checked against the architectural rules.
# ----------------------------------------------------------------------

_ZEROS = {ZERO_REGISTER, FLOAT_ZERO_REGISTER}


def _reference_dataflow(ins):
    """(uses, defs) of ``ins`` spelled out format by format."""
    op, fmt, control = ins.opcode, ins.opcode.format, ins.opcode.control
    if fmt in (Format.OPERATE, Format.OPERATE_FP):
        uses = [ins.ra] if ins.literal is not None else [ins.ra, ins.rb]
        if op in (Opcode.CMOVEQ, Opcode.CMOVNE):
            uses.append(ins.rc)
        defs = [ins.rc]
    elif fmt in (Format.MEMORY, Format.MEMORY_FP):
        uses = [ins.rb] if op.info.is_load else [ins.ra, ins.rb]
        defs = [ins.ra] if op.info.is_load else []
    elif fmt in (Format.BRANCH, Format.BRANCH_FP):
        uses = [ins.ra] if control == ControlKind.COND_BRANCH else []
        links = control in (ControlKind.UNCOND_BRANCH, ControlKind.CALL_DIRECT)
        defs = [ins.ra] if links else []
    elif fmt == Format.JUMP:
        uses, defs = [ins.rb], [ins.ra]
    else:
        uses, defs = [16 if op is Opcode.OUTPUT else 0], []
    return set(uses) - _ZEROS, set(defs) - _ZEROS


def _signed(value, bits):
    return value - (1 << bits) if value >> (bits - 1) else value


def _reference_decode(word):
    """Decode ``word`` field by field through ``Instruction(...)``;
    ``None`` when no opcode matches."""
    major = word >> 26
    ra, rb, rc = (word >> 21) & 31, (word >> 16) & 31, word & 31
    for op in Opcode:
        info, fmt = op.info, op.format
        if info.major != major:
            continue
        files = [32 if f == "f" else 0 for f in FIELD_FILES[op]]
        if fmt in (Format.MEMORY, Format.MEMORY_FP):
            return Instruction(op, ra=ra + files[0], rb=rb + files[1],
                               displacement=_signed(word & 0xFFFF, 16))
        if fmt in (Format.BRANCH, Format.BRANCH_FP):
            return Instruction(op, ra=ra + files[0],
                               displacement=_signed(word & 0x1FFFFF, 21))
        if fmt == Format.OPERATE_FP and (word >> 5) & 0x7FF == info.function:
            return Instruction(op, ra=ra + files[0], rb=rb + files[1],
                               rc=rc + files[2])
        if fmt == Format.OPERATE and (word >> 5) & 0x7F == info.function:
            if (word >> 12) & 1:
                return Instruction(op, ra=ra + files[0], rc=rc + files[2],
                                   literal=(word >> 13) & 0xFF)
            return Instruction(op, ra=ra + files[0], rb=rb + files[1],
                               rc=rc + files[2])
        if fmt == Format.JUMP and (word >> 14) & 3 == info.function:
            return Instruction(op, ra=ra, rb=rb)
        if fmt == Format.PAL and word & 0x03FF_FFFF == info.function:
            return Instruction(op)
    return None


def _assert_same(decoded, expected):
    assert decoded == expected
    assert hash(decoded) == hash(expected)
    assert decoded.uses() == expected.uses()
    assert decoded.defs() == expected.defs()
    assert (set(decoded.uses()), set(decoded.defs())) == (
        _reference_dataflow(expected)
    )
    assert decode_instruction(encode_instruction(decoded)) == decoded


_INT_GRID = (0, 1, 16, 26, 30, ZERO_REGISTER)
_FP_GRID = (32, 33, 62, FLOAT_ZERO_REGISTER)
_DISPLACEMENTS = {
    16: (-(1 << 15), -1, 0, 1, (1 << 15) - 1),
    21: (-(1 << 20), -1, 0, 1, (1 << 20) - 1),
}


def _grid_instructions(op):
    """Every grid combination ``op`` can encode."""
    grids = [_FP_GRID if f == "f" else _INT_GRID for f in FIELD_FILES[op]]
    fmt = op.format
    if fmt == Format.PAL:
        yield Instruction(op)
    elif fmt == Format.JUMP:
        for ra, rb in itertools.product(grids[0], grids[1]):
            yield Instruction(op, ra=ra, rb=rb)
    elif fmt in (Format.OPERATE, Format.OPERATE_FP):
        for ra, rb, rc in itertools.product(*grids):
            yield Instruction(op, ra=ra, rb=rb, rc=rc)
            if fmt == Format.OPERATE:
                for literal in (0, 255):
                    yield Instruction(op, ra=ra, rc=rc, literal=literal)
    else:
        memory = fmt in (Format.MEMORY, Format.MEMORY_FP)
        bases = grids[1] if memory else (ZERO_REGISTER,)
        for ra, rb in itertools.product(grids[0], bases):
            for displacement in _DISPLACEMENTS[16 if memory else 21]:
                yield Instruction(op, ra=ra, rb=rb, displacement=displacement)


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
def test_exhaustive_grid_decodes_identically(opcode):
    """Every opcode x register grid (both zero registers included) x
    literal form x boundary displacement decodes, alone and in one
    stream, to the instruction that encoded it."""
    expected = list(_grid_instructions(opcode))
    streamed = decode_stream(encode_stream(expected))
    for instruction, from_stream in zip(expected, streamed):
        _assert_same(decode_instruction(encode_instruction(instruction)), instruction)
        _assert_same(from_stream, instruction)
    assert len(streamed) == len(expected)


def _check_word(word):
    """``word`` either fails both decoders or decodes to the reference
    instruction (==, hash, uses, defs, round trip)."""
    expected = _reference_decode(word)
    if expected is None:
        with pytest.raises(EncodingError):
            decode_instruction(word)
        with pytest.raises(EncodingError):
            decode_stream(struct.pack("<I", word))
        return
    _assert_same(decode_instruction(word), expected)
    _assert_same(decode_stream(struct.pack("<I", word))[0], expected)


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_property_random_words_match_reference(word):
    _check_word(word)


@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=(1 << 26) - 1),
)
def test_property_every_major_matches_reference(major, low):
    """Uniform words rarely reach the operate function tables; this
    draws the major opcode first."""
    _check_word((major << 26) | low)


class TestSharedDecoding:
    def test_repeated_words_decode_to_equal_shared_instances(self):
        add = Instruction(Opcode.ADDQ, ra=1, rb=2, rc=3)
        near = Instruction(Opcode.LDQ, ra=1, rb=30, displacement=8)
        far = Instruction(Opcode.LDQ, ra=1, rb=30, displacement=-64)
        decoded = decode_stream(encode_stream([add, near, add, far, near]))
        assert decoded == [add, near, add, far, near]
        assert decoded[0] is decoded[2] and decoded[1] is decoded[4]
        # One shape, two displacements: distinct instances, shared sets.
        assert decoded[1] != decoded[3]
        assert decoded[1].uses() is decoded[3].uses()
        assert decoded[1].defs() is decoded[3].defs()

    def test_stream_error_names_the_first_bad_address(self):
        good = encode_instruction(Instruction(Opcode.ADDQ, ra=1, rb=2, rc=3))
        code = struct.pack("<4I", good, 0x07 << 26, good, 0x05 << 26)
        with pytest.raises(EncodingError, match="at 0x1004"):
            decode_stream(code, 0x1000)

    def test_replace_on_a_decoded_instance_revalidates(self):
        shared = decode_stream(encode_stream(
            [Instruction(Opcode.STQ, ra=1, rb=30, displacement=16)] * 2
        ))
        moved = dataclasses.replace(shared[0], ra=9)
        assert moved == Instruction(Opcode.STQ, ra=9, rb=30, displacement=16)
        assert moved.uses() == {9, 30}
        assert shared[1].uses() == {1, 30}  # the shared original is untouched
        with pytest.raises(ValueError):
            dataclasses.replace(shared[0], ra=64)
        with pytest.raises(ValueError):
            dataclasses.replace(shared[0], literal=3)

    def test_perturbing_a_decoded_program(self, small_benchmark):
        from repro.program.disasm import disassemble_image
        from repro.program.rewrite import program_to_image
        from repro.workloads.mutate import first_editable_routine, perturb_routine

        program = disassemble_image(program_to_image(small_benchmark))
        name = first_editable_routine(program)
        edited = perturb_routine(program, name)
        before = program.routine(name).instructions
        after = edited.routine(name).instructions
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert len(changed) == 1
        fresh = after[changed[0]]
        assert fresh.uses() == Instruction(
            fresh.opcode, fresh.ra, fresh.rb, fresh.rc, fresh.literal,
            fresh.displacement,
        ).uses()
        # The decoded original is untouched (shared instances never mutate).
        again = disassemble_image(program_to_image(small_benchmark))
        assert again.routine(name).instructions == before

    def test_decoded_program_pickles(self, small_benchmark):
        from repro.program.disasm import disassemble_image
        from repro.program.rewrite import program_to_image

        program = disassemble_image(program_to_image(small_benchmark))
        clone = pickle.loads(pickle.dumps(program))
        for routine in program:
            copied = clone.routine(routine.name).instructions
            assert copied == routine.instructions
            for original, restored in zip(routine.instructions, copied):
                assert hash(original) == hash(restored)
                assert original.uses() == restored.uses()
                assert original.defs() == restored.defs()
