//===- support/ErrorHandling.h - Fatal errors and unreachable ---*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fatal-error reporting and the spice_unreachable marker. Library code does
/// not use exceptions; unrecoverable conditions abort with a message.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_SUPPORT_ERRORHANDLING_H
#define SPICE_SUPPORT_ERRORHANDLING_H

namespace spice {

/// Prints \p Msg (with source location when provided) to stderr and aborts.
[[noreturn]] void reportFatalError(const char *Msg, const char *File = nullptr,
                                   unsigned Line = 0);

} // namespace spice

/// Marks a point in code that should never be executed. Aborts with the
/// given message if reached; informs the optimizer in release builds.
#define spice_unreachable(Msg)                                                 \
  ::spice::reportFatalError(Msg, __FILE__, __LINE__)

#endif // SPICE_SUPPORT_ERRORHANDLING_H
