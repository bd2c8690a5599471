//===- Disassembler.h - Bytecode validation and disassembly -----*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two read-only views of a CompiledProgram that tests and
/// diagnostics use: a structural validator (operand ranges, jump targets,
/// pool indices) and a textual disassembler whose output the golden VM
/// tests pin.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_VM_DISASSEMBLER_H
#define MVEC_VM_DISASSEMBLER_H

#include "vm/Bytecode.h"

#include <string>

namespace mvec {
namespace vm {

/// Structural validation: every operand index in range for its class,
/// jump targets inside the instruction stream, flags meaningful for
/// their opcode. Returns an empty string when valid, else a diagnostic.
std::string validateProgram(const CompiledProgram &P);

/// Human-readable listing, one instruction per line — stable output,
/// pinned by golden tests.
std::string disassemble(const CompiledProgram &P);

} // namespace vm
} // namespace mvec

#endif // MVEC_VM_DISASSEMBLER_H
