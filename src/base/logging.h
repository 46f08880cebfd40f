// Minimal trace logging for the simulator.
//
// Tracing is off by default; benches and examples can enable it to watch the
// protocols execute. CHECK-style assertions terminate on internal invariant
// violations (bugs), never on user or simulated-environment errors.
#ifndef SRC_BASE_LOGGING_H_
#define SRC_BASE_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace camelot {

enum class TraceLevel { kOff = 0, kInfo = 1, kDebug = 2 };

// Global trace verbosity; not thread-safe by design (the DES is single-threaded).
void SetTraceLevel(TraceLevel level);

void TraceLine(TraceLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

#define CTRACE(...) ::camelot::TraceLine(::camelot::TraceLevel::kInfo, __VA_ARGS__)
#define CDEBUG(...) ::camelot::TraceLine(::camelot::TraceLevel::kDebug, __VA_ARGS__)

[[noreturn]] void CheckFailed(const char* file, int line, const char* expr);

#define CAMELOT_CHECK(expr)                              \
  do {                                                   \
    if (!(expr)) {                                       \
      ::camelot::CheckFailed(__FILE__, __LINE__, #expr); \
    }                                                    \
  } while (0)

}  // namespace camelot

#endif  // SRC_BASE_LOGGING_H_
