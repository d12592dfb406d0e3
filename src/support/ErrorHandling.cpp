//===- support/ErrorHandling.cpp - Fatal errors and unreachable ----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ErrorHandling.h"

#include <cstdio>
#include <cstdlib>

void spice::reportFatalError(const char *Msg, const char *File,
                             unsigned Line) {
  if (File)
    std::fprintf(stderr, "fatal error: %s (%s:%u)\n", Msg, File, Line);
  else
    std::fprintf(stderr, "fatal error: %s\n", Msg);
  std::abort();
}
