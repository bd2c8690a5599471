//===- SpawnProbe.cpp - The process-start reference of mvec_bench ---------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A program that starts and exits at once. mvec_bench forks and execs it
/// beside each mvecd boot: it pays the process start a boot pays (fork,
/// exec, loading the same shared C++ runtime) and runs no mvec code, so a
/// change to the program does not move it.
///
//===----------------------------------------------------------------------===//

#include <string>

int main(int Argc, char **Argv) {
  // Uses the C++ runtime, so it is loaded as it is for mvecd.
  std::string Name(Argc > 0 ? Argv[0] : "");
  return Name.empty() ? 1 : 0;
}
