"""Instruction semantics for the Alpha-like ISA.

Spike works on fully linked machine code, so the unit of analysis is the
machine instruction.  For interprocedural register dataflow the analysis
needs exactly three things from each instruction:

* the registers it **reads** (uses),
* the registers it **writes** (defs),
* how it transfers control (fall-through, conditional branch,
  unconditional branch, indirect jump, call, return, or halt).

This module defines an :class:`Instruction` value type carrying that
information, plus the opcode table shared with the binary encoder
(:mod:`repro.isa.encoding`), the assembler and the disassembler.

The instruction formats mirror the Alpha AXP formats:

* **operate**   ``op ra, rb_or_lit, rc`` — ``rc = ra OP rb`` (or an 8-bit
  zero-extended literal in place of ``rb``);
* **memory**    ``op ra, disp(rb)`` — loads, stores and LDA/LDAH;
* **branch**    ``op ra, disp`` — PC-relative branches; BSR is the direct
  call and writes the return address into ``ra``;
* **jump**      ``op ra, (rb)`` — register-indirect JMP/JSR/RET;
* **pal**       ``call_pal func`` — HALT stops the program, OUTPUT emits
  the value of ``a0`` to the observable output stream (used as the
  behavioural oracle when validating optimizations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.isa.registers import (
    FLOAT_ZERO_REGISTER,
    NUM_INTEGER_REGISTERS,
    NUM_REGISTERS,
    Register,
    ZERO_REGISTER,
)


class Format(enum.Enum):
    """Alpha instruction formats (selects the binary encoding)."""

    OPERATE = "operate"        # integer register-to-register
    OPERATE_FP = "operate_fp"  # floating-point register-to-register
    MEMORY = "memory"          # load/store/LDA with 16-bit displacement
    MEMORY_FP = "memory_fp"    # floating-point load/store
    BRANCH = "branch"          # PC-relative, 21-bit displacement
    BRANCH_FP = "branch_fp"    # PC-relative on a float register
    JUMP = "jump"              # register-indirect JMP/JSR/RET
    PAL = "pal"                # CALL_PAL


class ControlKind(enum.Enum):
    """How an instruction transfers control."""

    FALLTHROUGH = "fallthrough"
    COND_BRANCH = "cond_branch"
    UNCOND_BRANCH = "uncond_branch"
    INDIRECT_JUMP = "indirect_jump"
    CALL_DIRECT = "call_direct"
    CALL_INDIRECT = "call_indirect"
    RETURN = "return"
    HALT = "halt"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one opcode."""

    mnemonic: str
    format: Format
    control: ControlKind
    #: Major opcode bits [31:26] in the binary encoding.
    major: int
    #: Function code (operate formats) or jump-type / PAL function.
    function: int = 0
    #: For memory format: True when ``ra`` is written (load) rather than
    #: read (store).
    is_load: bool = False
    commutative: bool = False


class Opcode(enum.Enum):
    """Every opcode in the Alpha-like ISA.

    The enum value is an :class:`OpcodeInfo` describing format, control
    behaviour and binary encoding.
    """

    # --- integer operate (major 0x10/0x11/0x12/0x13) -------------------
    ADDQ = OpcodeInfo("addq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x20, commutative=True)
    SUBQ = OpcodeInfo("subq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x29)
    CMPEQ = OpcodeInfo("cmpeq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x2D, commutative=True)
    CMPLT = OpcodeInfo("cmplt", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x4D)
    CMPLE = OpcodeInfo("cmple", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x6D)
    CMPULT = OpcodeInfo("cmpult", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x1D)
    CMPULE = OpcodeInfo("cmpule", Format.OPERATE, ControlKind.FALLTHROUGH, 0x10, 0x3D)
    AND = OpcodeInfo("and", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x00, commutative=True)
    BIC = OpcodeInfo("bic", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x08)
    BIS = OpcodeInfo("bis", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x20, commutative=True)
    ORNOT = OpcodeInfo("ornot", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x28)
    XOR = OpcodeInfo("xor", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x40, commutative=True)
    EQV = OpcodeInfo("eqv", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x48, commutative=True)
    SLL = OpcodeInfo("sll", Format.OPERATE, ControlKind.FALLTHROUGH, 0x12, 0x39)
    SRL = OpcodeInfo("srl", Format.OPERATE, ControlKind.FALLTHROUGH, 0x12, 0x34)
    SRA = OpcodeInfo("sra", Format.OPERATE, ControlKind.FALLTHROUGH, 0x12, 0x3C)
    MULQ = OpcodeInfo("mulq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x13, 0x20, commutative=True)
    CMOVEQ = OpcodeInfo("cmoveq", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x24)
    CMOVNE = OpcodeInfo("cmovne", Format.OPERATE, ControlKind.FALLTHROUGH, 0x11, 0x26)

    # --- floating operate (major 0x16) ----------------------------------
    ADDT = OpcodeInfo("addt", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A0, commutative=True)
    SUBT = OpcodeInfo("subt", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A1)
    MULT = OpcodeInfo("mult", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A2, commutative=True)
    CPYS = OpcodeInfo("cpys", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x17, 0x020)
    CMPTEQ = OpcodeInfo("cmpteq", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A5, commutative=True)
    CMPTLT = OpcodeInfo("cmptlt", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x16, 0x0A6)

    # --- int <-> float transfers (operate-shaped) -----------------------
    ITOFT = OpcodeInfo("itoft", Format.OPERATE, ControlKind.FALLTHROUGH, 0x14, 0x024)
    FTOIT = OpcodeInfo("ftoit", Format.OPERATE_FP, ControlKind.FALLTHROUGH, 0x1C, 0x070)

    # --- memory (loads write ra, stores read ra) ------------------------
    LDA = OpcodeInfo("lda", Format.MEMORY, ControlKind.FALLTHROUGH, 0x08, is_load=True)
    LDAH = OpcodeInfo("ldah", Format.MEMORY, ControlKind.FALLTHROUGH, 0x09, is_load=True)
    LDQ = OpcodeInfo("ldq", Format.MEMORY, ControlKind.FALLTHROUGH, 0x29, is_load=True)
    STQ = OpcodeInfo("stq", Format.MEMORY, ControlKind.FALLTHROUGH, 0x2D)
    LDT = OpcodeInfo("ldt", Format.MEMORY_FP, ControlKind.FALLTHROUGH, 0x23, is_load=True)
    STT = OpcodeInfo("stt", Format.MEMORY_FP, ControlKind.FALLTHROUGH, 0x27)

    # --- branch ----------------------------------------------------------
    BR = OpcodeInfo("br", Format.BRANCH, ControlKind.UNCOND_BRANCH, 0x30)
    BSR = OpcodeInfo("bsr", Format.BRANCH, ControlKind.CALL_DIRECT, 0x34)
    BLBC = OpcodeInfo("blbc", Format.BRANCH, ControlKind.COND_BRANCH, 0x38)
    BEQ = OpcodeInfo("beq", Format.BRANCH, ControlKind.COND_BRANCH, 0x39)
    BLT = OpcodeInfo("blt", Format.BRANCH, ControlKind.COND_BRANCH, 0x3A)
    BLE = OpcodeInfo("ble", Format.BRANCH, ControlKind.COND_BRANCH, 0x3B)
    BLBS = OpcodeInfo("blbs", Format.BRANCH, ControlKind.COND_BRANCH, 0x3C)
    BNE = OpcodeInfo("bne", Format.BRANCH, ControlKind.COND_BRANCH, 0x3D)
    BGE = OpcodeInfo("bge", Format.BRANCH, ControlKind.COND_BRANCH, 0x3E)
    BGT = OpcodeInfo("bgt", Format.BRANCH, ControlKind.COND_BRANCH, 0x3F)
    FBEQ = OpcodeInfo("fbeq", Format.BRANCH_FP, ControlKind.COND_BRANCH, 0x31)
    FBNE = OpcodeInfo("fbne", Format.BRANCH_FP, ControlKind.COND_BRANCH, 0x35)

    # --- register-indirect control flow (major 0x1A) --------------------
    JMP = OpcodeInfo("jmp", Format.JUMP, ControlKind.INDIRECT_JUMP, 0x1A, 0)
    JSR = OpcodeInfo("jsr", Format.JUMP, ControlKind.CALL_INDIRECT, 0x1A, 1)
    RET = OpcodeInfo("ret", Format.JUMP, ControlKind.RETURN, 0x1A, 2)

    # --- PAL calls --------------------------------------------------------
    HALT = OpcodeInfo("halt", Format.PAL, ControlKind.HALT, 0x00, 0x0000)
    OUTPUT = OpcodeInfo("output", Format.PAL, ControlKind.FALLTHROUGH, 0x00, 0x0080)

    @property
    def info(self) -> OpcodeInfo:
        return self.value

    @property
    def mnemonic(self) -> str:
        return self.value.mnemonic

    @property
    def format(self) -> Format:
        return self.value.format

    @property
    def control(self) -> ControlKind:
        return self.value.control


#: Mnemonic -> opcode lookup for the assembler.
MNEMONIC_TO_OPCODE: Dict[str, Opcode] = {op.mnemonic: op for op in Opcode}


class OperandKind(enum.Enum):
    """Whether the second operate operand is a register or a literal."""

    REGISTER = "register"
    LITERAL = "literal"


#: Register index ``a0`` (``r16``); OUTPUT reads it.
_A0 = 16

#: Register index ``v0`` (``r0``); HALT reads it (the exit status).
_V0 = 0


def _interned_sets() -> Tuple[List[FrozenSet[int]], List[List[FrozenSet[int]]]]:
    """``one[r]`` is ``{r}`` and ``two[a][b]`` is ``{a, b}``, both without
    the hardwired zero registers (their reads and writes carry no
    dataflow); equal sets are one shared object."""
    zeros = {ZERO_REGISTER, FLOAT_ZERO_REGISTER}
    pool: Dict[FrozenSet[int], FrozenSet[int]] = {}

    def intern(*registers: int) -> FrozenSet[int]:
        regs = frozenset(registers) - zeros
        return pool.setdefault(regs, regs)

    one = [intern(r) for r in range(NUM_REGISTERS)]
    two = [
        [intern(a, b) for b in range(NUM_REGISTERS)]
        for a in range(NUM_REGISTERS)
    ]
    return one, two


_ONE, _TWO = _interned_sets()
_NONE = _ONE[ZERO_REGISTER]


#: Each selector maps an instruction's ``(ra, rb, rc)`` to the interned
#: set of the registers its key names.
_SELECTORS: Dict[str, Callable[[int, int, int], FrozenSet[int]]] = {
    "": lambda ra, rb, rc: _NONE,
    "ra": lambda ra, rb, rc: _ONE[ra],
    "rb": lambda ra, rb, rc: _ONE[rb],
    "rc": lambda ra, rb, rc: _ONE[rc],
    "ra rb": lambda ra, rb, rc: _TWO[ra][rb],
    "ra rc": lambda ra, rb, rc: _TWO[ra][rc],
    # Only the conditional moves read three registers.
    "ra rb rc": lambda ra, rb, rc: _TWO[ra][rb] | _ONE[rc],
    "v0": lambda ra, rb, rc: _ONE[_V0],
    "a0": lambda ra, rb, rc: _ONE[_A0],
}


def _template(op: Opcode) -> Tuple[str, Optional[str], str]:
    """``(uses, uses with a literal, defs)`` of ``op`` as selector keys;
    the middle entry is ``None`` when ``op`` takes no literal."""
    fmt, control = op.format, op.control
    if fmt in (Format.OPERATE, Format.OPERATE_FP):
        if op in (Opcode.CMOVEQ, Opcode.CMOVNE):
            # The move may not happen, so the old destination flows through.
            return "ra rb rc", "ra rc", "rc"
        return "ra rb", "ra", "rc"
    if fmt in (Format.MEMORY, Format.MEMORY_FP):
        return ("rb", None, "ra") if op.info.is_load else ("ra rb", None, "")
    if fmt in (Format.BRANCH, Format.BRANCH_FP):
        uses = "ra" if control == ControlKind.COND_BRANCH else ""
        # BR and BSR write the return address into ra.
        links = control in (ControlKind.UNCOND_BRANCH, ControlKind.CALL_DIRECT)
        return uses, None, "ra" if links else ""
    if fmt == Format.JUMP:
        return "rb", None, "ra"
    # OUTPUT emits a0; HALT delivers v0 to the host as the exit status.
    return "a0" if op is Opcode.OUTPUT else "v0", None, ""


#: Per-opcode uses/defs templates, built once from the opcode table:
#: ``(uses, uses with a literal or None, defs)`` selectors.
_TEMPLATES = {
    op: tuple(None if key is None else _SELECTORS[key] for key in _template(op))
    for op in Opcode
}


@dataclass(frozen=True)
class Instruction:
    """One decoded machine instruction.

    Register operands are stored as indices into the unified 64-register
    file (``0..31`` integer, ``32..63`` float).  Which fields are
    meaningful depends on the opcode's format:

    * operate:  ``ra`` (source 1), ``rb`` or ``literal`` (source 2),
      ``rc`` (destination);
    * memory:   ``ra`` (data register), ``rb`` (base), ``displacement``;
    * branch:   ``ra`` (condition / link register), ``displacement``
      counted in *instructions* relative to the following instruction;
    * jump:     ``ra`` (link register), ``rb`` (target address register);
    * pal:      no register operands (OUTPUT implicitly reads ``a0``).

    Instructions are immutable values: decoding shares one instance
    among equal words, so compare with ``==``, never ``is``.
    """

    opcode: Opcode
    ra: int = ZERO_REGISTER
    rb: int = ZERO_REGISTER
    rc: int = ZERO_REGISTER
    literal: Optional[int] = None
    displacement: int = 0

    def __post_init__(self) -> None:
        ra, rb, rc = self.ra, self.rb, self.rc
        if not (
            0 <= ra < NUM_REGISTERS
            and 0 <= rb < NUM_REGISTERS
            and 0 <= rc < NUM_REGISTERS
        ):
            for field_name in ("ra", "rb", "rc"):
                index = getattr(self, field_name)
                if not 0 <= index < NUM_REGISTERS:
                    raise ValueError(
                        f"{self.opcode.mnemonic}: register field "
                        f"{field_name}={index} out of range [0, {NUM_REGISTERS})"
                    )
        uses, with_literal, defs = _TEMPLATES[self.opcode]
        if self.literal is not None:
            if with_literal is None:
                raise ValueError(
                    f"{self.opcode.mnemonic}: literal operand only valid in "
                    f"operate format"
                )
            if not 0 <= self.literal < 256:
                raise ValueError(
                    f"{self.opcode.mnemonic}: literal {self.literal} out of "
                    f"range [0, 256)"
                )
            uses = with_literal
        # The analyses query uses()/defs() in their hottest loops;
        # precompute both (the instruction is immutable).  The caches
        # are not dataclass fields, so equality/hash are unaffected.
        object.__setattr__(self, "_uses", uses(ra, rb, rc))
        object.__setattr__(self, "_defs", defs(ra, rb, rc))

    def with_displacement(self, displacement: int) -> "Instruction":
        """This instruction with another ``displacement``.

        Equal to ``dataclasses.replace(self, displacement=displacement)``
        but skips revalidation: the displacement is the one field
        ``__post_init__`` does not check, and ``uses()``/``defs()`` do
        not depend on it.  Fields are set in the order the dataclass
        sets them.
        """
        moved = object.__new__(Instruction)
        for name in ("opcode", "ra", "rb", "rc", "literal"):
            object.__setattr__(moved, name, getattr(self, name))
        object.__setattr__(moved, "displacement", displacement)
        object.__setattr__(moved, "_uses", self._uses)  # type: ignore[attr-defined]
        object.__setattr__(moved, "_defs", self._defs)  # type: ignore[attr-defined]
        return moved

    # ------------------------------------------------------------------
    # Register dataflow
    # ------------------------------------------------------------------

    def uses(self) -> FrozenSet[int]:
        """Indices of registers read by this instruction.

        Reads of the hardwired zero registers are *not* reported: they
        never constitute a dataflow dependence.
        """
        return self._uses  # type: ignore[attr-defined]

    def defs(self) -> FrozenSet[int]:
        """Indices of registers written by this instruction.

        Writes to the hardwired zero registers are discarded by the
        hardware and therefore not reported.
        """
        return self._defs  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    @property
    def control(self) -> ControlKind:
        return self.opcode.control

    @property
    def is_call(self) -> bool:
        return self.opcode.control in (
            ControlKind.CALL_DIRECT,
            ControlKind.CALL_INDIRECT,
        )

    @property
    def is_return(self) -> bool:
        return self.opcode.control == ControlKind.RETURN

    @property
    def is_block_terminator(self) -> bool:
        """True when a basic block must end after this instruction.

        Per the paper, basic blocks end at branches *and* at call
        instructions.
        """
        return self.opcode.control != ControlKind.FALLTHROUGH

    @property
    def falls_through(self) -> bool:
        """True when control may continue to the next instruction."""
        return self.opcode.control in (
            ControlKind.FALLTHROUGH,
            ControlKind.COND_BRANCH,
            ControlKind.CALL_DIRECT,
            ControlKind.CALL_INDIRECT,
        )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Format the instruction in assembly syntax."""
        op = self.opcode
        fmt = op.format
        if fmt in (Format.OPERATE, Format.OPERATE_FP):
            second = f"#{self.literal}" if self.literal is not None else str(Register(self.rb))
            return f"{op.mnemonic} {Register(self.ra)}, {second}, {Register(self.rc)}"
        if fmt in (Format.MEMORY, Format.MEMORY_FP):
            return f"{op.mnemonic} {Register(self.ra)}, {self.displacement}({Register(self.rb)})"
        if fmt in (Format.BRANCH, Format.BRANCH_FP):
            return f"{op.mnemonic} {Register(self.ra)}, {self.displacement:+d}"
        if fmt == Format.JUMP:
            return f"{op.mnemonic} {Register(self.ra)}, ({Register(self.rb)})"
        return op.mnemonic

    def __str__(self) -> str:
        return self.render()


# ----------------------------------------------------------------------
# Convenience predicates used throughout the CFG builder
# ----------------------------------------------------------------------


def is_call(instruction: Instruction) -> bool:
    """True for BSR and JSR."""
    return instruction.is_call


def is_return(instruction: Instruction) -> bool:
    """True for RET."""
    return instruction.is_return


def is_conditional_branch(instruction: Instruction) -> bool:
    """True for the B<cond> and FB<cond> families."""
    return instruction.control == ControlKind.COND_BRANCH


def is_unconditional_branch(instruction: Instruction) -> bool:
    """True for BR."""
    return instruction.control == ControlKind.UNCOND_BRANCH


def is_indirect_jump(instruction: Instruction) -> bool:
    """True for JMP (the multiway-branch implementation)."""
    return instruction.control == ControlKind.INDIRECT_JUMP


def branch_ops() -> Tuple[Opcode, ...]:
    """All conditional-branch opcodes (helper for generators and tests)."""
    return tuple(
        op for op in Opcode if op.control == ControlKind.COND_BRANCH
    )
