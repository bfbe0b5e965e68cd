// The main of the command-line programs (bench drivers and examples).
#pragma once

#include <iostream>

#include "util/require.hpp"

namespace ppdc {

/// Runs `body`, and turns a PpdcError that escapes it (a bad option, an
/// invalid input) into an `error: <what>` line on stderr and exit status
/// 1, where it would otherwise end in std::terminate and SIGABRT.
inline int guarded_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const PpdcError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ppdc
