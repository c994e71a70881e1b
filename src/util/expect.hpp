// Lightweight contract checking for the evclimate library.
//
// EVC_EXPECT   — precondition on caller-supplied values; throws
//                std::invalid_argument so misuse is recoverable and testable.
// EVC_ENSURE   — internal invariant / postcondition; throws std::logic_error
//                because a violation means the library itself is wrong.
// EVC_UNREACHABLE — end of a function whose switch covers every enumerator
//                (so -Wswitch still checks coverage); throws std::logic_error.
//                A direct [[noreturn]] call, so unlike EVC_ENSURE(false, …)
//                no optimisation level warns about a missing return.
//
// Both always fire (no NDEBUG gating): the models in this library run at
// control-loop rates (~1 Hz effective), so the checks are free in practice
// and catching a bad parameter beats silently producing a wrong trajectory.
#pragma once

#include <stdexcept>
#include <string>

namespace evc {

[[noreturn]] inline void contract_fail_precondition(const char* expr,
                                                    const char* file, int line,
                                                    const std::string& msg) {
  throw std::invalid_argument(std::string("precondition failed: ") + expr +
                              " at " + file + ":" + std::to_string(line) +
                              (msg.empty() ? "" : (" — " + msg)));
}

[[noreturn]] inline void contract_fail_invariant(const char* expr,
                                                 const char* file, int line,
                                                 const std::string& msg) {
  throw std::logic_error(std::string("invariant failed: ") + expr + " at " +
                         file + ":" + std::to_string(line) +
                         (msg.empty() ? "" : (" — " + msg)));
}

}  // namespace evc

#define EVC_EXPECT(cond, msg)                                              \
  do {                                                                     \
    if (!(cond))                                                           \
      ::evc::contract_fail_precondition(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)

#define EVC_ENSURE(cond, msg)                                           \
  do {                                                                  \
    if (!(cond))                                                        \
      ::evc::contract_fail_invariant(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)

#define EVC_UNREACHABLE(msg) \
  ::evc::contract_fail_invariant("unreachable", __FILE__, __LINE__, (msg))
